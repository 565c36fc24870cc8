// MinHash/LSH backend math and contract tests (DESIGN.md §16): the
// Jaccard-estimate concentration the banding threshold rests on,
// parameter validation, banding structure, thread-count determinism of
// the full kMinhashLsh coarse path, its recall against the tf-idf
// backend on near-duplicate corpora, and the empty/degenerate corpora
// the backend must not trip over.

#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "datagen/neardup_gen.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {
namespace {

std::vector<TokenId> TokenRange(uint32_t begin, uint32_t end) {
  std::vector<TokenId> tokens;
  for (uint32_t t = begin; t < end; ++t) {
    tokens.push_back(static_cast<TokenId>(t));
  }
  return tokens;
}

// Exact Jaccard of the two documents' shingle sets.
double ExactJaccard(const std::vector<TokenId>& a,
                    const std::vector<TokenId>& b, size_t shingle_k) {
  const std::vector<uint64_t> sa = ShingleHashes(a, shingle_k);
  const std::vector<uint64_t> sb = ShingleHashes(b, shingle_k);
  const std::unordered_set<uint64_t> set_a(sa.begin(), sa.end());
  const std::unordered_set<uint64_t> set_b(sb.begin(), sb.end());
  size_t inter = 0;
  for (uint64_t h : set_b) inter += set_a.count(h);
  const size_t uni = set_a.size() + set_b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

TEST(MinHashTest, JaccardEstimateConverges) {
  // Each signature component agrees with probability J (the MinHash
  // property), so the estimator is a mean of num_hashes Bernoulli(J)
  // draws. Hoeffding: P(|est - J| >= t) <= 2 exp(-2 t^2 num_hashes);
  // with num_hashes = 256 and delta = 1e-9 the tolerance is
  // t = sqrt(ln(2/delta) / (2 * 256)) ~= 0.2 — this test flakes with
  // probability < 1e-9 per pair if the implementation is correct, and
  // deterministically (fixed seed) not at all.
  MinHashParams params;
  params.num_hashes = 256;
  params.shingle_k = 1;
  const MinHashFamily family(params);
  const double tolerance =
      std::sqrt(std::log(2.0 / 1e-9) /
                (2.0 * static_cast<double>(params.num_hashes)));

  // Overlap fractions from disjoint to identical: A = [0, 100),
  // B = [cut, 100 + cut) share 100 - cut unigram shingles.
  for (uint32_t cut : {0u, 25u, 50u, 75u, 100u}) {
    const std::vector<TokenId> a = TokenRange(0, 100);
    const std::vector<TokenId> b = TokenRange(cut, 100 + cut);
    const double exact = ExactJaccard(a, b, params.shingle_k);
    const double estimate =
        EstimateJaccard(family.Signature(a), family.Signature(b));
    EXPECT_NEAR(estimate, exact, tolerance)
        << "cut=" << cut << " exact J=" << exact;
  }

  // Short disjoint documents under a narrow family (64 hashes over
  // 3-shingles, as the Template Matching baseline draws) estimate near 0.
  const MinHashFamily narrow(MinHashParams{64, 3, 7});
  EXPECT_LT(EstimateJaccard(narrow.Signature({1, 2, 3, 4, 5, 6}),
                            narrow.Signature({10, 20, 30, 40, 50, 60})),
            0.2);
}

TEST(MinHashTest, IdenticalDocumentsEstimateOne) {
  const MinHashFamily family(MinHashParams{});
  const std::vector<TokenId> doc = TokenRange(5, 40);
  EXPECT_EQ(family.Signature(doc), family.Signature(doc));
  EXPECT_DOUBLE_EQ(
      EstimateJaccard(family.Signature(doc), family.Signature(doc)), 1.0);
}

TEST(MinHashTest, ShortDocumentFallsBackToWholeDocShingle) {
  // Documents shorter than shingle_k sketch their whole token sequence,
  // so exact duplicates keep identical signatures at any length.
  MinHashParams params;
  params.shingle_k = 5;
  const MinHashFamily family(params);
  const std::vector<TokenId> tiny = {1, 2};
  EXPECT_EQ(ShingleHashes(tiny, params.shingle_k).size(), 1u);
  EXPECT_EQ(family.Signature(tiny), family.Signature(tiny));
  EXPECT_TRUE(family.Signature({}).empty());
}

TEST(MinHashTest, ValidateRejectsDegenerateParams) {
  MinHashParams zero_hashes;
  zero_hashes.num_hashes = 0;
  EXPECT_EQ(zero_hashes.Validate().code(), StatusCode::kInvalidArgument);

  MinHashParams zero_shingle;
  zero_shingle.shingle_k = 0;
  EXPECT_EQ(zero_shingle.Validate().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(MinHashParams{}.Validate().ok());
}

TEST(LshIndexTest, ValidateRejectsBadBanding) {
  const MinHashParams minhash;  // num_hashes = 128

  LshParams zero_bands;
  zero_bands.bands = 0;
  EXPECT_EQ(zero_bands.Validate(minhash).code(),
            StatusCode::kInvalidArgument);

  LshParams zero_rows;
  zero_rows.rows = 0;
  EXPECT_EQ(zero_rows.Validate(minhash).code(), StatusCode::kInvalidArgument);

  LshParams mismatched;
  mismatched.bands = 10;
  mismatched.rows = 10;  // 100 != 128
  const Status status = mismatched.Validate(minhash);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("128"), std::string::npos)
      << "message should name the mismatched sizes: " << status.ToString();

  EXPECT_TRUE(LshParams{}.Validate(minhash).ok());
}

TEST(LshIndexTest, BandKeysPartitionTheSignature) {
  MinHashParams params;
  params.num_hashes = 8;
  const MinHashFamily family(params);
  LshParams banding;
  banding.bands = 4;
  banding.rows = 2;

  const MinHashSignature sig = family.Signature(TokenRange(0, 30));
  const std::vector<uint64_t> keys = BandKeys(sig, banding);
  ASSERT_EQ(keys.size(), banding.bands);

  // Changing a component of band 0 changes only band 0's key.
  MinHashSignature perturbed = sig;
  perturbed[1] ^= 1;
  const std::vector<uint64_t> keys2 = BandKeys(perturbed, banding);
  EXPECT_NE(keys2[0], keys[0]);
  for (size_t band = 1; band < banding.bands; ++band) {
    EXPECT_EQ(keys2[band], keys[band]) << "band " << band;
  }
  EXPECT_TRUE(BandKeys(MinHashSignature{}, banding).empty());
}

TEST(LshIndexTest, QueryFindsCoBucketedDocuments) {
  MinHashParams params;
  params.num_hashes = 16;
  const MinHashFamily family(params);
  LshParams banding;
  banding.bands = 4;
  banding.rows = 4;

  const std::vector<TokenId> dup = TokenRange(0, 20);
  const std::vector<TokenId> other = TokenRange(100, 140);
  const std::vector<MinHashSignature> signatures = {
      family.Signature(dup), family.Signature(dup), family.Signature(other)};

  LshIndex index(params, banding);
  index.Build(signatures, /*num_threads=*/1);
  // Docs 0 and 1 share every bucket; doc 2 shares none.
  std::vector<std::vector<DocId>> buckets;
  index.ForEachBucket([&buckets](std::span<const DocId> docs) {
    buckets.emplace_back(docs.begin(), docs.end());
  });
  size_t shared = 0;
  for (const std::vector<DocId>& docs : buckets) {
    if (docs.size() > 1) {
      EXPECT_EQ(docs, (std::vector<DocId>{0, 1}));
      ++shared;
    } else {
      EXPECT_EQ(docs, (std::vector<DocId>{2}));
    }
  }
  EXPECT_EQ(shared, banding.bands);

  const LshIndex::Stats stats = index.ComputeStats();
  EXPECT_EQ(stats.max_bucket, 2u);
  // Docs 0 and 1 co-bucket in all 4 bands: 4 * C(2,2) pairs.
  EXPECT_EQ(stats.candidate_pairs, 4u);
}

// --- full kMinhashLsh coarse path ------------------------------------

Corpus DuplicateFamilyCorpus() {
  Corpus corpus;
  corpus.Add("red fox jumps over the lazy dog tonight");
  corpus.Add("call me now for the best massage in town");
  corpus.Add("red fox jumps over the lazy dog tonight");
  corpus.Add("totally unrelated benign advertisement text here");
  corpus.Add("call me now for the best massage in town");
  corpus.Add("red fox jumps over the lazy dog tonight");
  return corpus;
}

CoarseResult RunLsh(const Corpus& corpus, size_t num_threads) {
  CoarseOptions options;
  options.backend = CoarseBackend::kMinhashLsh;
  options.num_threads = num_threads;
  return CoarseClustering(options).Run(corpus);
}

TEST(LshCoarseTest, ExactDuplicatesCluster) {
  const CoarseResult result = RunLsh(DuplicateFamilyCorpus(), 1);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0], (std::vector<DocId>{0, 2, 5}));
  EXPECT_EQ(result.clusters[1], (std::vector<DocId>{1, 4}));
  EXPECT_EQ(result.singletons, (std::vector<DocId>{3}));
}

TEST(LshCoarseTest, DeterministicAcrossThreadCounts) {
  const Corpus corpus = DuplicateFamilyCorpus();
  const CoarseResult reference = RunLsh(corpus, 1);
  for (size_t threads : {2u, 4u, 8u}) {
    const CoarseResult run = RunLsh(corpus, threads);
    EXPECT_EQ(run.clusters, reference.clusters) << "threads=" << threads;
    EXPECT_EQ(run.singletons, reference.singletons) << "threads=" << threads;
    EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases)
        << "threads=" << threads;
    EXPECT_EQ(run.num_edges, reference.num_edges) << "threads=" << threads;
  }
}

TEST(LshCoarseTest, EmptyAndSingleDocCorpora) {
  const Corpus empty;
  const CoarseResult none = RunLsh(empty, 4);
  EXPECT_TRUE(none.clusters.empty());
  EXPECT_TRUE(none.singletons.empty());
  EXPECT_EQ(none.num_edges, 0u);

  Corpus one;
  one.Add("a single lonely document");
  const CoarseResult single = RunLsh(one, 4);
  EXPECT_TRUE(single.clusters.empty());
  EXPECT_EQ(single.singletons, (std::vector<DocId>{0}));
}

// Each document's component: its cluster's index, or a label of its
// own past the clusters for a singleton.
std::vector<size_t> ComponentOf(const CoarseResult& r, size_t num_docs) {
  std::vector<size_t> component(num_docs);
  size_t next = 0;
  for (const std::vector<DocId>& cluster : r.clusters) {
    for (DocId d : cluster) component[d] = next;
    ++next;
  }
  for (DocId d : r.singletons) component[d] = next++;
  return component;
}

TEST(LshCoarseTest, RecoversTfidfNearDuplicatePairsAtScale) {
  // Agreement regime: of the same-family pairs the tf-idf phrase graph
  // groups, MinHash/LSH must group at least 95% too. The vocabulary stays
  // fixed as the corpus grows, so chance phrase collisions grow with n;
  // the pairs only those collisions join cross families and are not
  // counted.
  for (size_t target : {1000u, 5000u, 25000u}) {
    NearDupGenOptions gen;
    gen.num_families = target / 16;
    gen.family_size_min = 4;
    gen.family_size_max = 12;
    gen.target_jaccard = 0.90;
    gen.shingle_k = MinHashParams{}.shingle_k;
    gen.num_noise = target / 2;
    const NearDupCorpus data = GenerateNearDupFamilies(gen, 1000 + target);
    const size_t n = data.corpus.size();
    CoarseOptions options;
    options.num_threads = 4;
    const std::vector<size_t> tfidf =
        ComponentOf(CoarseClustering(options).Run(data.corpus), n);
    options.backend = CoarseBackend::kMinhashLsh;
    const std::vector<size_t> lsh =
        ComponentOf(CoarseClustering(options).Run(data.corpus), n);

    // Same-family pairs grouped by tf-idf, and by both backends.
    std::map<std::tuple<int64_t, size_t>, double> tfidf_groups;
    std::map<std::tuple<int64_t, size_t, size_t>, double> both_groups;
    for (size_t d = 0; d < n; ++d) {
      if (data.family[d] < 0) continue;
      ++tfidf_groups[{data.family[d], tfidf[d]}];
      ++both_groups[{data.family[d], tfidf[d], lsh[d]}];
    }
    double tfidf_pairs = 0.0;
    double both_pairs = 0.0;
    for (const auto& [key, m] : tfidf_groups) tfidf_pairs += m * (m - 1) / 2;
    for (const auto& [key, m] : both_groups) both_pairs += m * (m - 1) / 2;
    ASSERT_GT(tfidf_pairs, 0.0) << "n=" << n;
    EXPECT_GE(both_pairs / tfidf_pairs, 0.95) << "n=" << n;
  }
}

TEST(LshCoarseTest, StatsReportBucketsAndPairs) {
  // The coarse path replays band keys and builds no index; the bucket
  // diagnostics come from an LshIndex over the same signatures.
  const Corpus corpus = DuplicateFamilyCorpus();
  const CoarseResult result = RunLsh(corpus, 1);
  EXPECT_GT(result.num_edges, 0u);
  EXPECT_EQ(result.stats.index_seconds, 0.0);
  EXPECT_EQ(result.stats.top_phrase_seconds, 0.0);
  EXPECT_EQ(result.stats.graph_seconds, 0.0);

  const CoarseOptions options;
  const MinHashFamily family(options.minhash);
  std::vector<MinHashSignature> signatures;
  for (const Document& doc : corpus.docs()) {
    signatures.push_back(family.Signature(doc.tokens));
  }
  LshIndex index(options.minhash, options.lsh);
  index.Build(signatures, /*num_threads=*/1);
  const LshIndex::Stats stats = index.ComputeStats();
  EXPECT_GT(stats.num_buckets, 0u);
  // The triple-duplicate family co-buckets in every band.
  EXPECT_EQ(stats.max_bucket, 3u);
  EXPECT_GT(stats.candidate_pairs, 0u);
}

}  // namespace
}  // namespace infoshield
