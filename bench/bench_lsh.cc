// MinHash/LSH coarse-backend scaling + recall benchmark.
//
// Sweeps synthetic near-duplicate corpora (datagen/neardup_gen: families
// with controllable shingle Jaccard plus free-text noise, FIXED
// vocabulary so chance phrase collisions grow with corpus size — the
// regime real corpora are in) and runs the coarse stage under both
// backends at each scale. Reports candidate-generation time, pair/edge
// counts, and the partition quality of each backend against the
// ground-truth families.
//
// The scaling claim under test (ISSUE 9 / DESIGN.md §16): LSH candidate
// generation stays ~O(n · signature) — its candidate pairs track the
// true family pairs — while the tf-idf bipartite graph picks up chance
// df>=2 phrases as the fixed vocabulary saturates, so its edge count
// grows superlinearly. The gate is on recall in the AGREEMENT regime:
// of the true (same-family) pairs the tf-idf backend groups together,
// the LSH backend must recover >= kMinRecall. Chance-collision pairs —
// where the backends legitimately disagree and tf-idf is the noisy one
// — are reported (pair counts, precision) but never gated.
//
// Usage: bench_lsh [output.json] [max_docs]
//   default ./BENCH_lsh.json, max_docs 500000 (CI smoke passes a
//   smaller cap; the gate applies at every scale that runs).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "coarse/coarse_clustering.h"
#include "datagen/neardup_gen.h"
#include "io/json_writer.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace infoshield;

constexpr double kMinRecall = 0.95;

// Per-document component id: clusters first, then singletons.
std::vector<int64_t> PartitionOf(const CoarseResult& r, size_t num_docs) {
  std::vector<int64_t> id(num_docs, -1);
  int64_t next = 0;
  for (const auto& cluster : r.clusters) {
    for (DocId d : cluster) id[static_cast<size_t>(d)] = next;
    ++next;
  }
  for (DocId d : r.singletons) id[static_cast<size_t>(d)] = next++;
  for (int64_t& v : id) {
    if (v < 0) v = next++;  // defensive: uncovered docs stay singletons
  }
  return id;
}

double PairCount(size_t m) {
  return 0.5 * static_cast<double>(m) * static_cast<double>(m - 1);
}

// Sum over groups of C(size, 2), grouping documents by key(doc).
template <typename KeyFn>
double GroupPairs(size_t num_docs, KeyFn key) {
  std::map<std::tuple<int64_t, int64_t, int64_t>, size_t> groups;
  for (size_t d = 0; d < num_docs; ++d) {
    ++groups[key(d)];
  }
  double pairs = 0.0;
  for (const auto& [k, m] : groups) pairs += PairCount(m);
  return pairs;
}

struct BackendRun {
  CoarseResult result;
  std::vector<int64_t> partition;
  double candidate_seconds = 0.0;  // producing candidates (pre-graph)
  double total_seconds = 0.0;
  // LSH backend only: the banded index over the run's signatures, which
  // the coarse stage itself never builds (it replays band keys).
  double bucket_seconds = 0.0;
  LshIndex::Stats buckets;
  double total_pairs = 0.0;  // Σ C(component, 2) — includes chance merges
  double true_pairs = 0.0;   // same-family pairs the backend groups
};

BackendRun RunBackend(const NearDupCorpus& data, CoarseBackend backend) {
  CoarseOptions options;
  options.backend = backend;
  options.num_threads = 0;  // hardware concurrency; output is identical
  CoarseClustering coarse(options);

  BackendRun run;
  run.result = coarse.Run(data.corpus);
  const CoarseStageStats& s = run.result.stats;
  const size_t n = data.corpus.size();
  if (backend == CoarseBackend::kMinhashLsh) {
    const MinHashFamily family(options.minhash);
    std::vector<MinHashSignature> signatures(n);
    ThreadPool::ParallelFor(options.num_threads, n, [&](size_t d) {
      signatures[d] = family.Signature(data.corpus.doc(d).tokens);
    });
    LshIndex index(options.minhash, options.lsh);
    WallTimer timer;
    index.Build(signatures, options.num_threads);
    run.bucket_seconds = timer.ElapsedSeconds();
    run.buckets = index.ComputeStats();
    run.candidate_seconds = s.signature_seconds + run.bucket_seconds;
  } else {
    run.candidate_seconds = s.index_seconds + s.top_phrase_seconds;
  }
  run.total_seconds = s.total_seconds();
  run.partition = PartitionOf(run.result, n);
  run.total_pairs =
      GroupPairs(n, [&](size_t d) {
        return std::make_tuple(run.partition[d], int64_t{0}, int64_t{0});
      });
  // Same family AND same component: the backend's true-pair recovery.
  // Noise documents (family -1) get unique pseudo-families so they never
  // pair with each other.
  run.true_pairs = GroupPairs(n, [&](size_t d) {
    const int64_t fam = data.family[d] >= 0
                            ? data.family[d]
                            : -static_cast<int64_t>(d) - 2;
    return std::make_tuple(fam, run.partition[d], int64_t{0});
  });
  return run;
}

void WriteBackend(JsonWriter& w, const char* key, const BackendRun& r,
                  double truth_pairs) {
  const CoarseStageStats& s = r.result.stats;
  w.Key(key).BeginObject();
  w.Key("candidate_seconds").Double(r.candidate_seconds);
  w.Key("total_seconds").Double(r.total_seconds);
  w.Key("index_seconds").Double(s.index_seconds);
  w.Key("top_phrase_seconds").Double(s.top_phrase_seconds);
  w.Key("signature_seconds").Double(s.signature_seconds);
  w.Key("bucket_seconds").Double(r.bucket_seconds);
  w.Key("graph_seconds").Double(s.graph_seconds);
  w.Key("components_seconds").Double(s.components_seconds);
  w.Key("num_edges").Int(static_cast<int64_t>(r.result.num_edges));
  w.Key("lsh_buckets").Int(static_cast<int64_t>(r.buckets.num_buckets));
  w.Key("lsh_max_bucket").Int(static_cast<int64_t>(r.buckets.max_bucket));
  w.Key("lsh_candidate_pairs")
      .Int(static_cast<int64_t>(r.buckets.candidate_pairs));
  w.Key("num_clusters").Int(static_cast<int64_t>(r.result.clusters.size()));
  w.Key("component_pairs").Double(r.total_pairs);
  w.Key("true_pairs").Double(r.true_pairs);
  w.Key("truth_recall")
      .Double(truth_pairs > 0.0 ? r.true_pairs / truth_pairs : 1.0);
  w.Key("truth_precision")
      .Double(r.total_pairs > 0.0 ? r.true_pairs / r.total_pairs : 1.0);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_lsh.json";
  const size_t max_docs =
      argc > 2 ? static_cast<size_t>(std::stoull(argv[2])) : 500000;

  const std::vector<size_t> kScales = {1000, 5000, 25000, 100000, 500000};

  bench::BenchJson bench_json("infoshield-bench-lsh/1");
  JsonWriter& w = bench_json.writer();
  w.Key("min_recall_threshold").Double(kMinRecall);
  w.Key("max_docs").Int(static_cast<int64_t>(max_docs));
  w.Key("sweep").BeginArray();

  std::vector<double> log_n;
  std::vector<double> log_tfidf_edges;
  std::vector<double> log_lsh_pairs;
  std::vector<double> log_tfidf_candidate_s;
  std::vector<double> log_lsh_candidate_s;
  double min_recall = 1.0;

  for (size_t target : kScales) {
    if (target > max_docs) break;

    // ~half family documents (avg family size 8), ~half noise; the
    // vocabulary deliberately does NOT scale with the corpus, so chance
    // phrase collisions across unrelated documents grow with n.
    NearDupGenOptions gen;
    gen.num_families = target / 16;
    gen.family_size_min = 4;
    gen.family_size_max = 12;
    gen.template_tokens = 24;
    gen.target_jaccard = 0.90;
    gen.shingle_k = MinHashParams{}.shingle_k;
    gen.num_noise = target / 2;
    gen.vocab_size = 20000;
    const NearDupCorpus data =
        GenerateNearDupFamilies(gen, /*seed=*/1000 + target);
    const size_t n = data.corpus.size();

    // Ground-truth same-family pairs.
    const double truth_pairs = GroupPairs(n, [&](size_t d) {
      const int64_t fam = data.family[d] >= 0
                              ? data.family[d]
                              : -static_cast<int64_t>(d) - 2;
      return std::make_tuple(fam, int64_t{0}, int64_t{0});
    });

    const BackendRun tfidf = RunBackend(data, CoarseBackend::kTfidfGraph);
    const BackendRun lsh = RunBackend(data, CoarseBackend::kMinhashLsh);

    // Agreement regime: of the true pairs tf-idf groups, how many does
    // LSH also group? (same family AND same tf-idf component AND same
    // LSH component)
    const double both_true = GroupPairs(n, [&](size_t d) {
      const int64_t fam = data.family[d] >= 0
                              ? data.family[d]
                              : -static_cast<int64_t>(d) - 2;
      return std::make_tuple(fam, tfidf.partition[d], lsh.partition[d]);
    });
    const double recall =
        tfidf.true_pairs > 0.0 ? both_true / tfidf.true_pairs : 1.0;
    if (recall < min_recall) min_recall = recall;

    std::printf(
        "n=%zu: tfidf cand %.3fs (%zu edges, %.0f comp-pairs)  "
        "lsh cand %.3fs (%zu cand-pairs, %.0f comp-pairs)  "
        "recall-vs-tfidf %.4f\n",
        n, tfidf.candidate_seconds, tfidf.result.num_edges,
        tfidf.total_pairs, lsh.candidate_seconds,
        lsh.buckets.candidate_pairs, lsh.total_pairs, recall);

    w.BeginObject();
    w.Key("documents").Int(static_cast<int64_t>(n));
    w.Key("truth_pairs").Double(truth_pairs);
    WriteBackend(w, "tfidf", tfidf, truth_pairs);
    WriteBackend(w, "lsh", lsh, truth_pairs);
    w.Key("recall_vs_tfidf").Double(recall);
    w.EndObject();

    log_n.push_back(std::log10(static_cast<double>(n)));
    log_tfidf_edges.push_back(
        std::log10(static_cast<double>(tfidf.result.num_edges) + 1.0));
    log_lsh_pairs.push_back(std::log10(
        static_cast<double>(lsh.buckets.candidate_pairs) + 1.0));
    log_tfidf_candidate_s.push_back(
        std::log10(tfidf.candidate_seconds + 1e-6));
    log_lsh_candidate_s.push_back(std::log10(lsh.candidate_seconds + 1e-6));
  }
  w.EndArray();

  // Log-log slopes: exponent b in metric ~ n^b across the sweep.
  const bench::LinearFit tfidf_edges = bench::FitLine(log_n, log_tfidf_edges);
  const bench::LinearFit lsh_pairs = bench::FitLine(log_n, log_lsh_pairs);
  const bench::LinearFit tfidf_time =
      bench::FitLine(log_n, log_tfidf_candidate_s);
  const bench::LinearFit lsh_time = bench::FitLine(log_n, log_lsh_candidate_s);
  bench_json.Metrics({
      {"tfidf_edges_exponent", tfidf_edges.slope},
      {"lsh_candidate_pairs_exponent", lsh_pairs.slope},
      {"tfidf_candidate_seconds_exponent", tfidf_time.slope},
      {"lsh_candidate_seconds_exponent", lsh_time.slope},
      {"min_recall_vs_tfidf", min_recall},
  });

  std::printf(
      "scaling exponents: tfidf edges n^%.2f, lsh cand-pairs n^%.2f, "
      "tfidf cand time n^%.2f, lsh cand time n^%.2f\n",
      tfidf_edges.slope, lsh_pairs.slope, tfidf_time.slope, lsh_time.slope);
  std::printf("min recall vs tfidf (agreement regime): %.4f\n", min_recall);

  const int write_rc = bench_json.Finish(out_path);
  if (write_rc != 0) return write_rc;
  if (min_recall < kMinRecall) {
    std::fprintf(stderr, "FAIL: recall %.4f below threshold %.2f\n",
                 min_recall, kMinRecall);
    return 1;
  }
  return 0;
}
