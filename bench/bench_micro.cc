// Experiment E10 — component microbenchmarks (google-benchmark):
//   * Needleman-Wunsch alignment: O(l^2) per document pair (Lemma 2's
//     MSA cost term)
//   * POA AddSequence: sequence-vs-graph DP + fusion
//   * tf-idf index construction: the O(N l) coarse-stage term
//   * cost model evaluation: the inner loop of consensus search
//   * union-find: the coarse-stage clustering backbone
//   * consensus search: the dichotomous search of Algorithm 2.
//
// Usage: bench_micro [output.json] [--benchmark_* flags]
//   Prints the usual google-benchmark console table, then writes every
//   run (including the BigO/RMS complexity rows) into the shared
//   BENCH_*.json envelope (schema "infoshield-bench-micro/1", default
//   ./BENCH_micro.json), the same envelope bench_fig2_scalability
//   writes.

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "io/json_writer.h"

#include "baselines/hdbscan.h"
#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "datagen/twitter_gen.h"
#include "graph/union_find.h"
#include "lsh/minhash.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "tfidf/tfidf_index.h"
#include "util/random.h"

namespace infoshield {
namespace {

std::vector<TokenId> RandomSeq(Rng& rng, size_t len, size_t vocab) {
  std::vector<TokenId> s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<TokenId>(rng.NextIndex(vocab)));
  }
  return s;
}

std::vector<TokenId> Mutate(const std::vector<TokenId>& base, Rng& rng,
                            double edit_prob, size_t vocab) {
  std::vector<TokenId> out;
  for (TokenId t : base) {
    if (rng.NextBernoulli(edit_prob)) {
      switch (rng.NextIndex(3)) {
        case 0:
          break;  // delete
        case 1:
          out.push_back(static_cast<TokenId>(rng.NextIndex(vocab)));
          break;
        default:
          out.push_back(static_cast<TokenId>(rng.NextIndex(vocab)));
          out.push_back(t);
      }
    } else {
      out.push_back(t);
    }
  }
  return out;
}

void BM_NeedlemanWunsch(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = RandomSeq(rng, len, 1000);
  auto b = Mutate(a, rng, 0.1, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NeedlemanWunsch(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(len));
}
BENCHMARK(BM_NeedlemanWunsch)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_PoaAddSequence(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(2);
  auto base = RandomSeq(rng, len, 1000);
  for (auto _ : state) {
    state.PauseTiming();
    PoaGraph graph(base);
    std::vector<std::vector<TokenId>> variants;
    for (int i = 0; i < 8; ++i) {
      variants.push_back(Mutate(base, rng, 0.08, 1000));
    }
    state.ResumeTiming();
    for (const auto& v : variants) graph.AddSequence(v);
    benchmark::DoNotOptimize(graph.node_count());
  }
  state.SetComplexityN(static_cast<int64_t>(len));
}
BENCHMARK(BM_PoaAddSequence)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_TfidfBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TwitterGenOptions o;
  o.num_genuine_accounts = n / 25;
  o.num_bot_accounts = n / 25;
  TwitterGenerator gen(o);
  LabeledTweets data = gen.Generate(3);
  for (auto _ : state) {
    TfidfIndex index;
    index.Build(data.corpus, TfidfOptions{});
    benchmark::DoNotOptimize(index.num_phrases());
  }
  state.SetComplexityN(static_cast<int64_t>(data.corpus.size()));
}
BENCHMARK(BM_TfidfBuild)->RangeMultiplier(2)->Range(256, 4096)->Complexity();

void BM_CoarseClustering(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TwitterGenOptions o;
  o.num_genuine_accounts = n / 25;
  o.num_bot_accounts = n / 25;
  TwitterGenerator gen(o);
  LabeledTweets data = gen.Generate(4);
  CoarseClustering coarse;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coarse.Run(data.corpus));
  }
  state.SetComplexityN(static_cast<int64_t>(data.corpus.size()));
}
BENCHMARK(BM_CoarseClustering)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity();

void BM_CostModelAlignment(benchmark::State& state) {
  CostModel cm(14.0);
  EncodingSummary s;
  s.alignment_length = 30;
  s.unmatched = 4;
  s.inserted_or_substituted = 3;
  s.slot_word_counts = {1, 2, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.EncodedDocCost(3, s));
  }
}
BENCHMARK(BM_CostModelAlignment);

void BM_UnionFind(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    UnionFind uf(n);
    for (size_t i = 0; i < n; ++i) {
      uf.Union(static_cast<uint32_t>(rng.NextIndex(n)),
               static_cast<uint32_t>(rng.NextIndex(n)));
    }
    benchmark::DoNotOptimize(uf.num_sets());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_UnionFind)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)
    ->Complexity();

// Algorithm 2's dichotomous consensus search on a realistic candidate
// set.
void BM_ConsensusSearchDichotomous(benchmark::State& state) {
  const size_t num_docs = static_cast<size_t>(state.range(0));
  Rng rng(6);
  auto base = RandomSeq(rng, 20, 500);
  std::vector<std::vector<TokenId>> docs;
  PoaGraph graph(base);
  docs.push_back(base);
  for (size_t i = 1; i < num_docs; ++i) {
    docs.push_back(Mutate(base, rng, 0.05, 500));
    graph.AddSequence(docs.back());
  }
  CostModel cm(12.0);
  FineClustering fine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fine.SearchConsensus(graph, docs, cm).consensus);
  }
}
BENCHMARK(BM_ConsensusSearchDichotomous)->RangeMultiplier(2)->Range(4, 64);

// Fine stage on one skewed cluster: the consensus-identity cache and
// incremental slot costing on the shape that stresses them (DESIGN.md
// §10).
void BM_FineStage(benchmark::State& state) {
  const size_t num_docs = static_cast<size_t>(state.range(0));
  Rng rng(10);
  Corpus corpus;
  auto base = RandomSeq(rng, 24, 600);
  for (size_t i = 0; i < num_docs; ++i) {
    auto seq = i == 0 ? base : Mutate(base, rng, 0.06, 600);
    std::string text;
    for (TokenId t : seq) {
      if (!text.empty()) text.push_back(' ');
      text += "w" + std::to_string(t);
    }
    corpus.Add(text);
  }
  std::vector<DocId> ids;
  for (size_t i = 0; i < corpus.size(); ++i) {
    ids.push_back(static_cast<DocId>(i));
  }
  const CostModel cm = CostModel::ForVocabulary(corpus.vocab());
  FineClustering fine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fine.RunOnCluster(corpus, ids, cm));
  }
  state.SetComplexityN(static_cast<int64_t>(num_docs));
}
BENCHMARK(BM_FineStage)->RangeMultiplier(2)->Range(8, 64);

void BM_MinHashSignature(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(8);
  auto seq = RandomSeq(rng, len, 5000);
  const MinHashFamily family(MinHashParams{64, 3, 0x5eed});
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.Signature(seq));
  }
  state.SetComplexityN(static_cast<int64_t>(len));
}
BENCHMARK(BM_MinHashSignature)->RangeMultiplier(4)->Range(16, 256)
    ->Complexity();

void BM_Hdbscan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<Vec> pts;
  for (size_t i = 0; i < n; ++i) {
    Vec v(16);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    L2Normalize(v);
    pts.push_back(std::move(v));
  }
  HdbscanOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hdbscan(pts, opts));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Hdbscan)->RangeMultiplier(2)->Range(64, 512)->Complexity();

// Prints the familiar console table and keeps a copy of every run so
// main() can replay them into the BENCH_micro.json envelope.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) captured_.push_back(run);
  }
  const std::vector<Run>& captured() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

}  // namespace
}  // namespace infoshield

int main(int argc, char** argv) {
  using namespace infoshield;
  // The output path is the first non-flag argument; everything else
  // (--benchmark_filter, --benchmark_min_time, ...) belongs to
  // google-benchmark, so pull ours out before Initialize sees it.
  std::string out_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      out_path = argv[i];
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bench::BenchJson bench_json("infoshield-bench-micro/1");
  JsonWriter& w = bench_json.writer();
  w.Key("benchmarks").BeginArray();
  int64_t measured = 0;
  for (const auto& run : reporter.captured()) {
    if (run.error_occurred) continue;
    // Aggregate rows (the BigO fit and its RMS) report accumulated
    // values with iterations == 0; per-iteration division only applies
    // to the measured rows.
    const double iters =
        run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
    w.BeginObject();
    w.Key("name").String(run.benchmark_name());
    w.Key("run_type").String(
        run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate
            ? "aggregate"
            : "iteration");
    w.Key("iterations").Int(static_cast<int64_t>(run.iterations));
    w.Key("real_time_s").Double(run.real_accumulated_time / iters);
    w.Key("cpu_time_s").Double(run.cpu_accumulated_time / iters);
    w.EndObject();
    if (run.run_type != benchmark::BenchmarkReporter::Run::RT_Aggregate) {
      ++measured;
    }
  }
  w.EndArray();
  bench_json.Metrics({
      {"measured_runs", static_cast<double>(measured)},
  });
  return bench_json.Finish(out_path);
}
