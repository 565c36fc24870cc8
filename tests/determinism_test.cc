// Byte-level reproducibility of the full coarse -> fine pipeline: the
// paper's evaluation tables (and any dedup-style audit trail) require
// that the same corpus and seed always produce the same clusters, in
// the same order, rendered to the same JSON — across repeated runs AND
// across thread counts. Anything less means unordered-container hash
// order or scheduling leaked into the output (the analyzer's
// unordered-iter and unordered-output-flow checks guard the code side;
// this guards the result).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
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

// Coarse clusters plus the top phrases the fine stage seeds from.
struct FineInput {
  Corpus corpus;
  std::vector<std::vector<DocId>> clusters;
  std::vector<std::vector<PhraseHash>> top_phrases;
};

FineInput CoarseClustersOf(Corpus corpus) {
  CoarseResult coarse = CoarseClustering(CoarseOptions{}).Run(corpus);
  return {std::move(corpus), std::move(coarse.clusters),
          std::move(coarse.doc_top_phrases)};
}

// A chain-shaped giant coarse component: near-duplicate campaigns laid
// out in runs of six consecutive documents, the way one account's bot
// posts sit next to each other, with every fourth run unrelated posts.
// Document i's top phrases are {i, i+1, i+2}, so it shares a phrase only
// with its neighbours i±1 and i±2, yet the chain is one component.
// clusters[0] is that 300-document chain; six clusters of ten follow.
FineInput MakeChainClusters() {
  const size_t length = 360;
  const size_t chain_length = 300;
  FineInput in;
  std::vector<DocId> docs;
  for (size_t i = 0; i < length; ++i) {
    const size_t run = i / 6;
    const size_t campaign = run % 5;
    // Two campaigns vary at one position (a slot); the rest anywhere.
    const size_t edit_at = campaign < 2 ? 7 : i % 14;
    std::string text;
    for (size_t w = 0; w < 14; ++w) {
      if (run % 4 == 3) {
        text += "post" + std::to_string(i) + "word" + std::to_string(w);
      } else if (w == edit_at) {
        text += "edit" + std::to_string(i);
      } else {
        text += "campaign" + std::to_string(campaign) + "word" +
                std::to_string(w);
      }
      text += ' ';
    }
    docs.push_back(in.corpus.Add(text));
  }
  // Filler documents outside every cluster bring lg V to a realistic
  // size.
  for (size_t f = 0; f < 40; ++f) {
    std::string text;
    for (size_t w = 0; w < 10; ++w) {
      text += "filler" + std::to_string(f * 10 + w) + ' ';
    }
    in.corpus.Add(text);
  }
  in.top_phrases.resize(in.corpus.size());
  for (size_t i = 0; i < length; ++i) {
    const PhraseHash link = 0x5eed0000ULL + i;
    in.top_phrases[docs[i]] = {link, link + 1, link + 2};
  }
  in.clusters.emplace_back(docs.begin(), docs.begin() + chain_length);
  for (size_t begin = chain_length; begin < length; begin += 10) {
    in.clusters.emplace_back(docs.begin() + begin,
                             docs.begin() + std::min(begin + 10, length));
  }
  return in;
}

std::string RunToJson(const Corpus& corpus, size_t num_threads,
                      CoarseBackend backend = CoarseBackend::kTfidfGraph) {
  InfoShieldOptions options;
  options.num_threads = num_threads;
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
  // coarse results render to the same bytes. The second corpus is wide:
  // 3,798 documents in many mid-sized campaigns and a large benign tail,
  // so every df partition and top-phrase chunk holds real work.
  TraffickingGenOptions wide;
  wide.num_benign = 2500;
  wide.num_spam_clusters = 12;
  wide.spam_cluster_size_min = 40;
  wide.spam_cluster_size_max = 80;
  wide.num_ht_clusters = 60;
  wide.ht_cluster_size_min = 5;
  wide.ht_cluster_size_max = 15;
  const Corpus corpora[] = {
      MakeCorpus(/*seed=*/42).corpus,
      TraffickingGenerator(wide).Generate(/*seed=*/211).corpus};
  for (const Corpus& corpus : corpora) {
    const CoarseResult reference =
        oracle::ReferenceCoarse(corpus, CoarseOptions{});
    ASSERT_FALSE(reference.clusters.empty());
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      CoarseOptions options;
      options.num_threads = threads;
      const CoarseResult run = CoarseClustering(options).Run(corpus);
      SCOPED_TRACE(testing::Message() << "threads=" << threads << ", "
                                      << corpus.size() << " documents");
      EXPECT_EQ(run.clusters, reference.clusters);
      EXPECT_EQ(run.singletons, reference.singletons);
      EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases);
      EXPECT_EQ(run.num_edges, reference.num_edges);
    }
  }
}

TEST(DeterminismTest, FineFanOutMatchesSerialRunOnCluster) {
  // RunOnClusters splits every cluster into claims, one candidate fan-out
  // across all clusters, and acceptance. At any thread count each
  // cluster's result must equal a serial RunOnCluster field for field:
  // templates, members, noise, encoding and cost bits, and work counters.
  const FineInput inputs[] = {CoarseClustersOf(MakeCorpus(/*seed=*/7).corpus),
                              MakeChainClusters()};
  const FineClustering fine;
  for (const FineInput& in : inputs) {
    const CostModel cm = CostModel::ForVocabulary(in.corpus.vocab());
    std::vector<FineResult> serial;
    size_t templates = 0;
    for (const std::vector<DocId>& cluster : in.clusters) {
      serial.push_back(
          fine.RunOnCluster(in.corpus, cluster, cm, &in.top_phrases));
      templates += serial.back().templates.size();
    }
    ASSERT_GT(in.clusters.size(), 1u);
    ASSERT_GE(templates, in.clusters.size());
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const std::vector<FineResult> fanned = fine.RunOnClusters(
          in.corpus, in.clusters, cm, &in.top_phrases, threads);
      ASSERT_EQ(fanned.size(), serial.size());
      for (size_t ci = 0; ci < serial.size(); ++ci) {
        EXPECT_EQ(oracle::DiffFineResults(fanned[ci], serial[ci]), "")
            << "threads=" << threads << ", cluster " << ci << " of "
            << in.corpus.size() << "-document corpus";
      }
    }
  }
}

TEST(DeterminismTest, FineAcceptanceMatchesReference) {
  // Production claims through a flat phrase index, costs scan probes from
  // gap profiles and tests acceptance on running sums; the reference
  // claims through ordered maps and full encodings and recomputes every
  // acceptance total from the whole accepted list. Accepted templates,
  // noise and cost bits must agree, with neighbor seeding and without.
  const FineInput inputs[] = {CoarseClustersOf(MakeCorpus(/*seed=*/7).corpus),
                              CoarseClustersOf(MakeSkewedCorpus().corpus),
                              MakeChainClusters()};
  FineOptions profile_exhaustive;
  profile_exhaustive.msa_backend = MsaBackend::kProfile;
  profile_exhaustive.exhaustive_consensus_search = true;
  for (const FineOptions& options : {FineOptions{}, profile_exhaustive}) {
    const FineClustering fine(options);
    for (const FineInput& in : inputs) {
      const CostModel cm = CostModel::ForVocabulary(in.corpus.vocab());
      for (size_t ci = 0; ci < in.clusters.size(); ++ci) {
        EXPECT_EQ(oracle::DiffFineResults(
                      fine.RunOnCluster(in.corpus, in.clusters[ci], cm,
                                        &in.top_phrases),
                      oracle::ReferenceAcceptance(in.corpus, in.clusters[ci],
                                                  cm, options,
                                                  &in.top_phrases)),
                  "")
            << "cluster " << ci << " of " << in.corpus.size()
            << "-document corpus";
      }
    }
  }
  // The full scan (no top phrases) over the whole chain.
  const FineInput& chain = inputs[2];
  const CostModel cm = CostModel::ForVocabulary(chain.corpus.vocab());
  const FineResult full =
      FineClustering().RunOnCluster(chain.corpus, chain.clusters[0], cm);
  EXPECT_GT(full.templates.size(), 2u);
  EXPECT_EQ(oracle::DiffFineResults(
                full, oracle::ReferenceAcceptance(chain.corpus,
                                                  chain.clusters[0], cm,
                                                  FineOptions{})),
            "");
}

TEST(DeterminismTest, MinhashLshBackendIsByteIdenticalAcrossThreads) {
  // The MinHash/LSH coarse backend must honor the same contract as the
  // tf-idf backend: signatures are pure per-document functions, band
  // keys replay doc-major through the shared edge accumulator, so any
  // worker count renders to the same bytes as one worker.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string serial =
      RunToJson(data.corpus, /*num_threads=*/1, CoarseBackend::kMinhashLsh);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {4u, 8u}) {
    EXPECT_EQ(serial,
              RunToJson(data.corpus, threads, CoarseBackend::kMinhashLsh))
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
