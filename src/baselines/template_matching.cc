#include "baselines/template_matching.h"

#include <algorithm>
#include <span>
#include <utility>

#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "util/logging.h"

namespace infoshield {

TemplateMatchingResult TemplateMatching(
    const Corpus& corpus, const TemplateMatchingOptions& options) {
  TemplateMatchingResult result;
  const size_t n = corpus.size();
  result.labels.assign(n, -1);
  result.suspicious.assign(n, false);
  if (n == 0) return result;
  CHECK_GT(options.bands, 0u);
  CHECK_EQ(options.num_hashes % options.bands, 0u);

  // Signatures; an empty document's is empty and occupies no bucket.
  const MinHashParams minhash{options.num_hashes, options.shingle_size,
                              options.seed};
  const MinHashFamily family(minhash);
  std::vector<MinHashSignature> signatures;
  signatures.reserve(n);
  for (const Document& doc : corpus.docs()) {
    signatures.push_back(family.Signature(doc.tokens));
  }

  // LSH banding: each document is paired with the first member of every
  // bucket it shares (transitive closure via union-find keeps this linear
  // in bucket size). A pair sharing several bands is proposed once.
  LshIndex index(minhash,
                 LshParams{options.bands, options.num_hashes / options.bands});
  index.Build(signatures, 1);
  std::vector<std::pair<DocId, DocId>> pairs;
  index.ForEachBucket([&pairs](std::span<const DocId> docs) {
    for (size_t k = 1; k < docs.size(); ++k) {
      pairs.emplace_back(docs[0], docs[k]);
    }
  });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  result.candidate_pairs = pairs.size();

  // Verification: a candidate pair is unioned iff its estimated Jaccard
  // similarity reaches the threshold.
  UnionFind uf(n);
  for (const auto& [first, other] : pairs) {
    if (EstimateJaccard(signatures[first], signatures[other]) >=
        options.jaccard_threshold) {
      ++result.verified_pairs;
      uf.Union(first, other);
    }
  }

  Components components =
      ExtractComponents(uf, options.min_cluster_size);
  for (size_t c = 0; c < components.groups.size(); ++c) {
    for (uint32_t d : components.groups[c]) {
      result.labels[d] = static_cast<int64_t>(c);
      result.suspicious[d] = true;
    }
  }
  result.num_clusters = components.groups.size();
  return result;
}

}  // namespace infoshield
