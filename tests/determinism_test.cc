// Byte-level reproducibility of the full coarse -> fine pipeline: the
// paper's evaluation tables (and any dedup-style audit trail) require
// that the same corpus and seed always produce the same clusters, in
// the same order, rendered to the same JSON — across repeated runs AND
// across thread counts. Anything less means unordered-container hash
// order or scheduling leaked into the output (tools/lint.py rule
// unordered-determinism guards the code side; this guards the result).

#include <string>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "oracle/reference_coarse.h"
#include "oracle/reference_fine.h"

namespace infoshield {
namespace {

LabeledAds MakeCorpus(uint64_t seed) {
  TraffickingGenOptions o;
  o.num_benign = 80;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 10;
  o.spam_cluster_size_max = 20;
  o.num_ht_clusters = 6;
  o.ht_cluster_size_min = 4;
  o.ht_cluster_size_max = 10;
  return TraffickingGenerator(o).Generate(seed);
}

// One dominant near-duplicate campaign dwarfing a few small organized
// clusters and a benign tail: the shape that makes the fine stage the
// bottleneck and its consensus cache hit hardest.
LabeledAds MakeSkewedCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 120;
  o.num_spam_clusters = 1;
  o.spam_cluster_size_min = 360;
  o.spam_cluster_size_max = 360;
  o.num_ht_clusters = 6;
  o.ht_cluster_size_min = 6;
  o.ht_cluster_size_max = 14;
  return TraffickingGenerator(o).Generate(/*seed=*/97);
}

std::string RunToJson(const Corpus& corpus, size_t num_threads,
                      size_t scan_threads = 1,
                      CoarseBackend backend = CoarseBackend::kTfidfGraph) {
  InfoShieldOptions options;
  options.num_threads = num_threads;
  options.fine.scan_threads = scan_threads;
  options.coarse.backend = backend;
  InfoShield shield(options);
  InfoShieldResult result = shield.Run(corpus);
  return ResultToJson(result, corpus);
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string first = RunToJson(data.corpus, /*num_threads=*/1);
  const std::string second = RunToJson(data.corpus, /*num_threads=*/1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeOutput) {
  LabeledAds data = MakeCorpus(/*seed=*/7);
  const std::string sequential = RunToJson(data.corpus, /*num_threads=*/1);
  const std::string parallel4 = RunToJson(data.corpus, /*num_threads=*/4);
  const std::string parallel8 = RunToJson(data.corpus, /*num_threads=*/8);
  EXPECT_EQ(sequential, parallel4);
  EXPECT_EQ(sequential, parallel8);
}

TEST(DeterminismTest, PipelineTemplatesMatchNaiveOracle) {
  // The fine-stage optimizations (consensus-identity caching, alignment
  // reuse, incremental slot costing) are required to be exact: for every
  // template the pipeline accepts, the consensus search over its
  // candidate set must equal the test-only re-align / re-encode
  // reference bit for bit and reproduce the emitted template and
  // encodings.
  const LabeledAds corpora[] = {MakeCorpus(/*seed=*/42),
                                MakeCorpus(/*seed=*/7), MakeSkewedCorpus()};
  for (const LabeledAds& data : corpora) {
    const InfoShieldOptions options;
    const InfoShieldResult result = InfoShield(options).Run(data.corpus);
    ASSERT_FALSE(result.templates.empty());
    EXPECT_EQ(oracle::DiffTemplatesAgainstReference(
                  result.templates, data.corpus,
                  CostModel::ForVocabulary(data.corpus.vocab()),
                  options.fine),
              "")
        << data.corpus.size() << "-document corpus";
  }
}

TEST(DeterminismTest, CoarseMatchesSerialOracleAtEveryThreadCount) {
  // The coarse stage (partitioned df count, per-document top-phrase
  // fan-out, canonical edge replay) is required to be exact: at every
  // thread count it must reproduce the test-only serial reference
  // field for field. The fine stage reads nothing else of it, so equal
  // coarse results render to the same bytes.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const CoarseResult reference =
      oracle::ReferenceCoarse(data.corpus, CoarseOptions{});
  ASSERT_FALSE(reference.clusters.empty());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    CoarseOptions options;
    options.num_threads = threads;
    const CoarseResult run = CoarseClustering(options).Run(data.corpus);
    EXPECT_EQ(run.clusters, reference.clusters) << "threads=" << threads;
    EXPECT_EQ(run.singletons, reference.singletons) << "threads=" << threads;
    EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases)
        << "threads=" << threads;
    EXPECT_EQ(run.num_edges, reference.num_edges) << "threads=" << threads;
  }
}

TEST(DeterminismTest, ScanThreadsDoNotChangeOutput) {
  // The intra-cluster candidate-alignment scan fans the seed-vs-pool
  // probes across scan_threads; membership decisions stay sequential in
  // pool order, so any worker count must render to the same bytes.
  LabeledAds data = MakeCorpus(/*seed=*/7);
  const std::string sequential = RunToJson(data.corpus, 1);
  for (size_t scan : {2u, 4u, 8u}) {
    EXPECT_EQ(sequential, RunToJson(data.corpus, 1, /*scan_threads=*/scan))
        << "scan_threads=" << scan << " changed the output";
  }
}

TEST(DeterminismTest, MinhashLshBackendIsByteIdenticalAcrossThreads) {
  // The MinHash/LSH coarse backend must honor the same contract as the
  // tf-idf backend: signatures are pure per-document functions, band
  // keys replay doc-major through the shared edge accumulator, so any
  // worker count renders to the same bytes as one worker.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string serial = RunToJson(data.corpus, /*num_threads=*/1,
                                       /*scan_threads=*/1,
                                       CoarseBackend::kMinhashLsh);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {4u, 8u}) {
    EXPECT_EQ(serial, RunToJson(data.corpus, threads, /*scan_threads=*/1,
                                CoarseBackend::kMinhashLsh))
        << "LSH coarse backend diverged at num_threads=" << threads;
  }
}

TEST(DeterminismTest, RegeneratedCorpusIsByteIdentical) {
  // The generator itself must be seed-deterministic, or the pipeline
  // guarantees above would be untestable end to end.
  LabeledAds a = MakeCorpus(/*seed=*/1234);
  LabeledAds b = MakeCorpus(/*seed=*/1234);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  EXPECT_EQ(RunToJson(a.corpus, 2), RunToJson(b.corpus, 2));
}

}  // namespace
}  // namespace infoshield
