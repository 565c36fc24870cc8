// The incremental ingestion core's differential oracle: after ANY
// sequence of IngestBatch calls, ResultToJson over the engine's result
// must byte-match a fresh InfoShield::Run over the concatenated corpus
// (DESIGN.md §15). These tests drive the oracle across fixed splits,
// random splits of seed corpora (property test), a degree cap, and
// thread counts — and pin down the reuse and dirty-marking accounting
// that makes incrementality worth having.

#include "incremental/incremental_infoshield.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "util/random.h"

namespace infoshield {
namespace {

TraffickingGenOptions SmallCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 60;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 8;
  o.spam_cluster_size_max = 14;
  o.num_ht_clusters = 5;
  o.ht_cluster_size_min = 4;
  o.ht_cluster_size_max = 8;
  return o;
}

std::vector<std::string> GeneratedTexts(
    uint64_t seed, const TraffickingGenOptions& o = SmallCorpus()) {
  LabeledAds data = TraffickingGenerator(o).Generate(seed);
  std::vector<std::string> texts;
  texts.reserve(data.corpus.size());
  for (const Document& doc : data.corpus.docs()) {
    texts.push_back(doc.raw);
  }
  return texts;
}

// The oracle: a fresh batch run over the first `n` texts.
std::string BatchJson(const std::vector<std::string>& texts, size_t n,
                      const InfoShieldOptions& options) {
  Corpus corpus;
  corpus.AddBatch(
      std::vector<std::string>(texts.begin(), texts.begin() + n),
      options.num_threads);
  InfoShield shield(options);
  const InfoShieldResult result = shield.Run(corpus);
  return ResultToJson(result, corpus);
}

std::string IncrementalJson(const IncrementalInfoShield& engine) {
  return ResultToJson(engine.result(), engine.corpus());
}

// Ingests `texts` in batches cut at `splits` (ascending positions, end
// implied), checking the oracle after every batch.
void CheckSplits(const std::vector<std::string>& texts,
                 const std::vector<size_t>& splits,
                 const InfoShieldOptions& options) {
  IncrementalInfoShield engine(options);
  size_t begin = 0;
  std::vector<size_t> ends(splits);
  ends.push_back(texts.size());
  for (size_t end : ends) {
    ASSERT_LE(begin, end);
    Result<IngestStats> stats = engine.IngestBatch(std::vector<std::string>(
        texts.begin() + begin, texts.begin() + end));
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->total_docs, end);
    EXPECT_EQ(stats->dirty_clusters + stats->reused_clusters,
              stats->num_coarse_clusters);
    ASSERT_EQ(IncrementalJson(engine), BatchJson(texts, end, options))
        << "diverged from the batch oracle after ingesting " << end
        << " documents (batch boundary at " << begin << ")";
    begin = end;
  }
  EXPECT_TRUE(engine.ValidateInvariants().ok());
}

TEST(IncrementalTest, EmptyEngineMatchesBatchRunOverEmptyCorpus) {
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  EXPECT_EQ(IncrementalJson(engine), BatchJson({}, 0, options));
  Result<IngestStats> stats = engine.IngestBatch({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batch_docs, 0u);
  EXPECT_EQ(stats->generation, 0u);
}

TEST(IncrementalTest, SingleBatchMatchesBatchRun) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/42);
  InfoShieldOptions options;
  CheckSplits(texts, {}, options);
}

TEST(IncrementalTest, FixedSplitsMatchBatchRunAtEveryPrefix) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/7);
  InfoShieldOptions options;
  // Mixed batch sizes, including a 1-document batch and a large tail.
  CheckSplits(texts, {1, 2, 10, 11, 40, texts.size() / 2}, options);
}

TEST(IncrementalTest, ManySmallBatches) {
  std::vector<std::string> texts = GeneratedTexts(/*seed=*/3);
  texts.resize(40);
  std::vector<size_t> splits;
  for (size_t i = 4; i < texts.size(); i += 4) splits.push_back(i);
  InfoShieldOptions options;
  CheckSplits(texts, splits, options);
}

TEST(IncrementalTest, RandomSplitPropertyTest) {
  // Random batch splits of seed corpora: whatever the cut points, every
  // prefix must byte-match the batch pipeline.
  InfoShieldOptions options;
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::vector<std::string> texts = GeneratedTexts(seed);
    texts.resize(80);
    Rng rng(seed * 977);
    std::vector<size_t> splits;
    size_t at = 0;
    while (true) {
      at += 1 + rng.NextBounded(25);
      if (at >= texts.size()) break;
      splits.push_back(at);
    }
    CheckSplits(texts, splits, options);
  }
}

TEST(IncrementalTest, DegreeCapForcesRebuildAndStillMatches) {
  // With a max_phrase_degree cap, the cap's edge drops depend on the
  // canonical replay order, which every ingest's graph replay must
  // reproduce to land byte-exact on the oracle.
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/21);
  InfoShieldOptions options;
  options.coarse.max_phrase_degree = 3;
  CheckSplits(texts, {10, 30, 60}, options);
}

TEST(IncrementalTest, SmallUpdatesToALargeBaseMatchBatchRun) {
  // A 1,149-document base, then six batches of four copies of one base
  // document each: every update touches about one coarse component of a
  // full-size corpus and adds no new word, the regime in which the
  // engine reuses cached fine results.
  TraffickingGenOptions o;
  o.num_benign = 800;
  o.num_spam_clusters = 6;
  o.spam_cluster_size_min = 20;
  o.spam_cluster_size_max = 40;
  o.num_ht_clusters = 20;
  o.ht_cluster_size_min = 5;
  o.ht_cluster_size_max = 12;
  std::vector<std::string> texts = GeneratedTexts(/*seed=*/409, o);
  std::vector<size_t> splits;
  for (size_t round = 1; round <= 6; ++round) {
    splits.push_back(texts.size());
    const std::string repeated = texts[round * 37];
    texts.insert(texts.end(), 4, repeated);
  }
  CheckSplits(texts, splits, InfoShieldOptions{});
}

TEST(IncrementalTest, ThreadedEngineMatchesSerialOracle) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/42);
  InfoShieldOptions serial;
  InfoShieldOptions threaded;
  threaded.num_threads = 4;
  IncrementalInfoShield engine(threaded);
  const std::vector<size_t> ends = {texts.size() / 3, texts.size()};
  size_t begin = 0;
  for (size_t end : ends) {
    ASSERT_TRUE(engine
                    .IngestBatch(std::vector<std::string>(
                        texts.begin() + begin, texts.begin() + end))
                    .ok());
    EXPECT_EQ(IncrementalJson(engine), BatchJson(texts, end, serial));
    begin = end;
  }
}

TEST(IncrementalTest, UntouchedComponentsReuseCachedFineResults) {
  // Two families of exact duplicates with disjoint wording. Batch 2
  // adds more copies of family A only: family B's docs keep their df
  // pattern (same df for every B phrase, so idf growth rescales all B
  // scores by one positive factor and the top-phrase ORDER holds), its
  // component membership is unchanged, and no new words arrive — so
  // family B's fine result must come from the cache.
  const std::string a = "sweet asian girls new in town call five five five";
  const std::string b = "grand opening best massage downtown walk ins welcome";
  std::vector<std::string> first_batch;
  for (int i = 0; i < 5; ++i) first_batch.push_back(a);
  for (int i = 0; i < 5; ++i) first_batch.push_back(b);

  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  Result<IngestStats> s1 = engine.IngestBatch(first_batch);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(s1->num_coarse_clusters, 2u);
  EXPECT_EQ(s1->dirty_clusters, 2u);  // first sight: everything is dirty

  Result<IngestStats> s2 = engine.IngestBatch({a, a, a});
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE(s2->vocab_grew);
  EXPECT_TRUE(s2->graph_rebuilt);
  ASSERT_EQ(s2->num_coarse_clusters, 2u);
  EXPECT_EQ(s2->reused_clusters, 1u) << "family B should be a cache hit";
  EXPECT_EQ(s2->dirty_clusters, 1u);
  EXPECT_EQ(s2->dirty_cluster_docs, 8u);  // family A now has 8 members

  // And the oracle still holds, cached results included.
  std::vector<std::string> all = first_batch;
  all.insert(all.end(), {a, a, a});
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, ChangedTopPhrasesDirtyAnUnchangedCluster) {
  // One new document moves idf enough to reorder an old document's top
  // phrases while its coarse cluster keeps exactly its members and lg V
  // holds still. The fine stage seeds candidate pools from the members'
  // top phrases, so that cluster must re-fine rather than come from the
  // cache: only the per-document change stamps can tell.
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/28);
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  Result<IngestStats> s1 = engine.IngestBatch(
      std::vector<std::string>(texts.begin(), texts.begin() + 45));
  ASSERT_TRUE(s1.ok()) << s1.status();
  Result<IngestStats> s2 = engine.IngestBatch({texts[45]});
  ASSERT_TRUE(s2.ok()) << s2.status();
  EXPECT_FALSE(s2->vocab_grew);
  EXPECT_EQ(s2->num_coarse_clusters, 4u);
  EXPECT_EQ(s2->reused_clusters, 3u);
  EXPECT_EQ(s2->dirty_clusters, 1u);
  EXPECT_EQ(IncrementalJson(engine), BatchJson(texts, 46, options));
}

TEST(IncrementalTest, RejectsTheLshBackend) {
  // The engine runs the tf-idf coarse stage only; under kMinhashLsh its
  // result would not be InfoShield::Run's, so IngestBatch refuses every
  // batch and leaves the corpus as it was.
  InfoShieldOptions options;
  options.coarse.backend = CoarseBackend::kMinhashLsh;
  IncrementalInfoShield engine(options);
  const Result<IngestStats> stats = engine.IngestBatch(GeneratedTexts(42));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("kMinhashLsh"), std::string::npos)
      << stats.status();
  EXPECT_EQ(engine.corpus().size(), 0u);
  EXPECT_EQ(IncrementalJson(engine), BatchJson({}, 0, options));
}

TEST(IncrementalTest, NewVocabularyClearsTheFineCache) {
  const std::string a = "sweet asian girls new in town call five five five";
  const std::string b = "grand opening best massage downtown walk ins welcome";
  std::vector<std::string> first_batch = {a, a, a, b, b, b};
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  ASSERT_TRUE(engine.IngestBatch(first_batch).ok());

  // Batch with a brand-new word: lg V moves, every cached cost
  // comparison is stale, everything re-fines.
  Result<IngestStats> stats =
      engine.IngestBatch({"totally novel wording zzyzx"});
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->vocab_grew);
  EXPECT_EQ(stats->reused_clusters, 0u);

  std::vector<std::string> all = first_batch;
  all.push_back("totally novel wording zzyzx");
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, IngestAfterIngestGrowsMonotonically) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/5);
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  uint64_t last_generation = 0;
  for (size_t i = 0; i + 10 <= 50; i += 10) {
    Result<IngestStats> stats = engine.IngestBatch(std::vector<std::string>(
        texts.begin() + i, texts.begin() + i + 10));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->batch_docs, 10u);
    EXPECT_GT(stats->generation, last_generation);
    last_generation = stats->generation;
    EXPECT_EQ(engine.corpus().size(), i + 10);
  }
  EXPECT_TRUE(engine.ValidateInvariants().ok());
}

}  // namespace
}  // namespace infoshield
