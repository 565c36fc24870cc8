// Coarse-stage parallelism regression harness.
//
// Runs the coarse pipeline on a wide synthetic corpus — many mid-sized
// campaigns plus a large benign tail, the shape that makes the coarse
// stage (tokenize -> tf-idf -> top phrases -> graph) the bottleneck —
// once through the test-only serial reference (tests/oracle) and then
// through the production path at 1/2/4/8 threads. Every run MUST produce
// a result identical to the reference (clusters, singletons,
// per-document top phrases, edge count); any disagreement exits
// non-zero so CI fails. Emits BENCH_coarse.json with per-phase timings
// (tokenize/index/top-phrase/graph/components) for every thread count
// and the 4-thread speedup over 1 thread, giving the repo a tracked
// trajectory for this path.
//
// On single-core runners the speedup reported is honest (~1x or below);
// the benchmark gates only on divergence, never on speedup.
//
// Usage: bench_coarse [output.json]   (default ./BENCH_coarse.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "coarse/coarse_clustering.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "oracle/reference_coarse.h"
#include "util/timer.h"

namespace {

using namespace infoshield;

// Wide corpus: lots of documents and campaigns so df accumulation and
// top-phrase selection dominate, not one cluster's fine alignment.
LabeledAds WideCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 2500;
  o.num_spam_clusters = 12;
  o.spam_cluster_size_min = 40;
  o.spam_cluster_size_max = 80;
  o.num_ht_clusters = 60;
  o.ht_cluster_size_min = 5;
  o.ht_cluster_size_max = 15;
  return TraffickingGenerator(o).Generate(/*seed=*/211);
}

struct RunOutcome {
  CoarseResult result;
  CoarseStageStats best;  // min-of-trials per phase + tokenize
  size_t threads = 0;
};

// Coarse results carry no floats, so exact comparison is the contract.
bool SameResult(const CoarseResult& a, const CoarseResult& b) {
  return a.clusters == b.clusters && a.singletons == b.singletons &&
         a.doc_top_phrases == b.doc_top_phrases && a.num_edges == b.num_edges;
}

RunOutcome RunConfig(const std::vector<std::string>& texts, size_t threads,
                     int trials) {
  RunOutcome out;
  out.threads = threads;
  CoarseOptions options;
  options.num_threads = threads;
  for (int trial = 0; trial < trials; ++trial) {
    // Rebuild the corpus from raw text each trial so tokenization is
    // measured under the same thread count as the rest of the stage.
    Corpus corpus;
    WallTimer timer;
    corpus.AddBatch(texts, threads);
    const double tokenize_seconds = timer.ElapsedSeconds();

    CoarseClustering coarse(options);
    CoarseResult result = coarse.Run(corpus);
    result.stats.tokenize_seconds = tokenize_seconds;

    const bool first = trial == 0;
    CoarseStageStats& best = out.best;
    if (first || result.stats.tokenize_seconds < best.tokenize_seconds) {
      best.tokenize_seconds = result.stats.tokenize_seconds;
    }
    if (first || result.stats.index_seconds < best.index_seconds) {
      best.index_seconds = result.stats.index_seconds;
    }
    if (first || result.stats.top_phrase_seconds < best.top_phrase_seconds) {
      best.top_phrase_seconds = result.stats.top_phrase_seconds;
    }
    if (first || result.stats.graph_seconds < best.graph_seconds) {
      best.graph_seconds = result.stats.graph_seconds;
    }
    if (first || result.stats.components_seconds < best.components_seconds) {
      best.components_seconds = result.stats.components_seconds;
    }
    if (first) {
      out.result = std::move(result);
    }
  }
  return out;
}

double TotalSeconds(const CoarseStageStats& s) {
  return s.tokenize_seconds + s.total_seconds();
}

void WriteRun(JsonWriter& w, const RunOutcome& r) {
  w.BeginObject();
  w.Key("num_threads").Int(static_cast<int64_t>(r.threads));
  w.Key("tokenize_seconds").Double(r.best.tokenize_seconds);
  w.Key("index_seconds").Double(r.best.index_seconds);
  w.Key("top_phrase_seconds").Double(r.best.top_phrase_seconds);
  w.Key("graph_seconds").Double(r.best.graph_seconds);
  w.Key("components_seconds").Double(r.best.components_seconds);
  w.Key("total_seconds").Double(TotalSeconds(r.best));
  w.Key("num_clusters").Int(static_cast<int64_t>(r.result.clusters.size()));
  w.Key("num_edges").Int(static_cast<int64_t>(r.result.num_edges));
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_coarse.json";
  constexpr int kTrials = 3;

  LabeledAds data = WideCorpus();
  std::vector<std::string> texts;
  texts.reserve(data.corpus.size());
  for (const Document& doc : data.corpus.docs()) {
    texts.push_back(doc.raw);
  }
  std::printf("corpus: %zu documents (wide: many mid-sized campaigns)\n",
              texts.size());

  // The serial reference first, on a corpus tokenized once.
  Corpus reference_corpus;
  reference_corpus.AddBatch(texts, /*num_threads=*/1);
  WallTimer timer;
  const CoarseResult reference =
      oracle::ReferenceCoarse(reference_corpus, CoarseOptions{});
  const double reference_seconds = timer.ElapsedSeconds();
  std::printf("serial reference: %.3fs (coarse stage only)\n",
              reference_seconds);

  double speedup4 = 0.0;
  std::vector<RunOutcome> runs;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RunOutcome run = RunConfig(texts, threads, kTrials);
    if (!SameResult(run.result, reference)) {
      std::fprintf(stderr,
                   "FAIL: coarse run (num_threads=%zu) diverged from the "
                   "serial reference\n",
                   threads);
      return 1;
    }
    std::printf(
        "threads=%zu: total %.3fs  (tok %.3f  idx %.3f  top %.3f  "
        "graph %.3f  comp %.3f)\n",
        threads, TotalSeconds(run.best), run.best.tokenize_seconds,
        run.best.index_seconds, run.best.top_phrase_seconds,
        run.best.graph_seconds, run.best.components_seconds);
    if (threads == 4 && TotalSeconds(run.best) > 0.0) {
      speedup4 = TotalSeconds(runs.front().best) / TotalSeconds(run.best);
    }
    runs.push_back(std::move(run));
  }
  std::printf("speedup at 4 threads over 1: %.2fx  (outputs identical: yes)\n",
              speedup4);

  bench::BenchJson bench_json("infoshield-bench-coarse/3");
  JsonWriter& w = bench_json.writer();
  w.Key("corpus_documents").Int(static_cast<int64_t>(texts.size()));
  w.Key("trials").Int(kTrials);
  w.Key("outputs_identical").Bool(true);
  w.Key("reference_seconds").Double(reference_seconds);
  w.Key("runs").BeginArray();
  for (const RunOutcome& run : runs) {
    WriteRun(w, run);
  }
  w.EndArray();
  w.Key("speedup_4_threads").Double(speedup4);
  return bench_json.Finish(out_path);
}
