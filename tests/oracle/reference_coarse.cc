#include "oracle/reference_coarse.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>
#include <vector>

#include "graph/union_find.h"
#include "oracle/reference_ngram.h"
#include "tfidf/tfidf_index.h"
#include "util/logging.h"

namespace infoshield::oracle {

namespace {

std::vector<PhraseHash> ReferenceTopPhrases(
    const Document& doc, const std::unordered_map<PhraseHash, uint32_t>& df,
    size_t num_documents, const TfidfOptions& options) {
  const size_t min_n = std::min(options.min_ngram, options.max_ngram);
  std::map<PhraseHash, uint32_t> tf;
  for (const NgramSpan& g : ExtractNgrams(doc, options.max_ngram)) {
    if (g.n >= min_n) ++tf[g.hash];
  }
  std::vector<ScoredPhrase> scored;
  for (const auto& [hash, count] : tf) {
    const auto it = df.find(hash);
    // A phrase in one document cannot connect two: only df >= 2 counts.
    const size_t phrase_df = it == df.end() ? 0 : it->second;
    if (phrase_df < 2) continue;
    const double idf = std::log(static_cast<double>(num_documents) /
                                static_cast<double>(phrase_df));
    scored.push_back(ScoredPhrase{hash, static_cast<double>(count) * idf});
  }
  // The top 10% of the eligible phrases, rounded up.
  const size_t keep = std::min(
      static_cast<size_t>(std::ceil(0.10 * static_cast<double>(scored.size()))),
      scored.size());
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPhrase& a, const ScoredPhrase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.hash < b.hash;
            });
  std::vector<PhraseHash> top;
  for (size_t i = 0; i < keep; ++i) top.push_back(scored[i].hash);
  return top;
}

}  // namespace

std::unordered_map<PhraseHash, uint32_t> ReferenceDocumentFrequencies(
    const Corpus& corpus, size_t begin, size_t end, size_t max_ngram) {
  std::unordered_map<PhraseHash, uint32_t> df;
  std::unordered_set<PhraseHash> seen;
  for (size_t d = begin; d < end; ++d) {
    seen.clear();
    for (const NgramSpan& g : ExtractNgrams(corpus.docs()[d], max_ngram)) {
      seen.insert(g.hash);
    }
    // determinism: commutative integer increments; order cannot matter.
    for (const PhraseHash hash : seen) ++df[hash];
  }
  return df;
}

CoarseResult ReferenceCoarse(const Corpus& corpus,
                             const CoarseOptions& options) {
  CHECK(options.backend == CoarseBackend::kTfidfGraph)
      << "the reference coarse stage covers the tf-idf backend only";
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;
  const std::unordered_map<PhraseHash, uint32_t> df =
      ReferenceDocumentFrequencies(corpus, 0, n, options.tfidf.max_ngram);
  result.doc_top_phrases.resize(n);
  UnionFind uf(n);
  CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  for (DocId d = 0; d < n; ++d) {
    result.doc_top_phrases[d] =
        ReferenceTopPhrases(corpus.doc(d), df, n, options.tfidf);
    for (const PhraseHash phrase : result.doc_top_phrases[d]) {
      ++result.num_edges;
      edges.Add(d, phrase);
    }
  }
  EmitCoarseComponents(uf, options, &result);
  return result;
}

}  // namespace infoshield::oracle
