#include "trace_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "graph/union_find.h"
#include "incremental/incremental_infoshield.h"
#include "io/csv.h"
#include "io/json_writer.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "tfidf/tfidf_index.h"
#include "util/thread_pool.h"

namespace perfbench {

using infoshield::Corpus;
using infoshield::DocId;
using infoshield::JsonWriter;
using infoshield::Status;
using infoshield::TokenId;

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

// Written by hand: JsonWriter::Double keeps 6 significant digits, and
// measurements and exact counts need all of them (%.17g round-trips).
std::string Report::ToJson() const {
  auto number = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::string(buf);
  };
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"values\":{";
  auto key = [&out](const std::string& name, bool first) {
    if (!first) out += ",";
    out += "\"";
    out += name;
    out += "\":";
  };
  for (const auto& [name, value] : values) {
    key(name, name == values.begin()->first);
    out += number(value);
  }
  out += "},\"samples\":{";
  for (const auto& [name, list] : samples) {
    key(name, name == samples.begin()->first);
    out += "[";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ",";
      out += number(list[i]);
    }
    out += "]";
  }
  return out + "}}";
}

namespace {

// Members per coarse cluster the msa probe aligns against the cluster's
// first member. Bounds the probe on giant components (POA cost grows with
// the graph every fused sequence adds).
constexpr size_t kMsaMembersPerCluster = 16;
// The incremental probe cold-ingests all but the last kProbeBatches
// batches of kProbeBatchDocs documents, then ingests those one by one.
constexpr size_t kProbeBatches = 2;
constexpr size_t kProbeBatchDocs = 25;

// Spans in memory, written out at the end. Begin/End nest on the calling
// thread; Add records a span timed elsewhere (e.g. on a worker).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  // Seconds since the log was created; safe from any thread.
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int Begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), Now(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  // Closes the innermost span; returns its duration.
  double End() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end = Now();
    return span.end - span.start;
  }

  void Add(std::string name, double start, double end, int parent) {
    spans_.push_back({std::move(name), start, end, parent});
  }

  Status Write(const std::string& path) const {
    JsonWriter w;
    w.BeginObject();
    w.Key("spans").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      w.BeginObject();
      w.Key("id").Int(static_cast<int64_t>(i));
      w.Key("name").String(spans_[i].name);
      w.Key("start_s").Double(spans_[i].start);
      w.Key("end_s").Double(spans_[i].end);
      w.Key("parent").Int(spans_[i].parent);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return infoshield::WriteJsonFile(path, w.str() + "\n");
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Runs `body` inside a span named `name`; returns its seconds.
template <typename Body>
double Timed(SpanLog& log, const char* name, Body&& body) {
  log.Begin(name);
  body();
  return log.End();
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

Report RunTraced(const Inputs& inputs, const TraceConfig& config) {
  Report report;
  auto& v = report.values;
  const size_t threads = config.threads;
  const infoshield::InfoShieldOptions options = PipelineOptions(threads);
  SpanLog log;
  log.Begin("trace");

  // io + text: the CSV read and the tokenize/intern pass that
  // LoadCorpusFromCsv fuses.
  v["io.csv_read_s"] = Timed(log, "io.csv_read", [&] {
    const infoshield::Result<infoshield::CsvTable> table =
        infoshield::ReadCsvFile(DocsCsvPath(config.dir));
    report.Check(table.ok(), "csv read: " + table.status().ToString());
  });
  Corpus corpus;
  v["text.tokenize_s"] = Timed(log, "text.tokenize", [&] {
    corpus.AddBatch(inputs.texts, threads);
  });
  v["text.tokenize_1t_s"] = Timed(log, "text.tokenize_1t", [&] {
    Corpus serial;
    serial.AddBatch(inputs.texts, 1);
  });
  double tokens = 0.0;
  for (const infoshield::Document& doc : corpus.docs()) {
    tokens += static_cast<double>(doc.length());
  }
  v["text.tokens"] = tokens;
  v["text.vocab"] = static_cast<double>(corpus.vocab().size());
  const size_t n = corpus.size();

  // The untraced pipeline: the reference for the checks below and for
  // the tracing overhead.
  const infoshield::InfoShield shield(options);
  infoshield::InfoShieldResult result;
  std::string json;
  const double untraced = Timed(log, "pipeline", [&] {
    result = shield.Run(corpus);
    json = infoshield::ResultToJson(result, corpus);
    report.Check(infoshield::WriteJsonFile(config.dir + "/out.json", json)
                     .ok(),
                 "json write");
  });
  Corrupt(config.corrupt, &json);
  report.Check(Digest(json) == config.digest,
               "digest " + Digest(json) + " vs reference " + config.digest);
  const Status valid = infoshield::ValidateInfoShieldResult(result, corpus);
  report.Check(valid.ok(), "validate: " + valid.ToString());

  // tfidf
  infoshield::TfidfIndex index;
  v["tfidf.build_s"] = Timed(log, "tfidf.build", [&] {
    index.Build(corpus, options.coarse.tfidf, threads);
  });
  v["tfidf.build_1t_s"] = Timed(log, "tfidf.build_1t", [&] {
    infoshield::TfidfIndex serial;
    serial.Build(corpus, options.coarse.tfidf, 1);
  });
  v["tfidf.phrases"] = static_cast<double>(index.num_phrases());
  v["tfidf.shard_contended"] =
      static_cast<double>(index.build_stats().shard_contended);
  std::vector<std::vector<infoshield::ScoredPhrase>> top(n);
  v["tfidf.top_phrases_s"] = Timed(log, "tfidf.top_phrases", [&] {
    infoshield::ThreadPool::ParallelFor(threads, n, [&](size_t d) {
      top[d] = index.TopPhrases(corpus.doc(static_cast<DocId>(d)));
    });
  });
  top.clear();

  // lsh: the pipeline runs the tf-idf backend, so the MinHash/LSH
  // candidate generator is probed on the same corpus.
  const infoshield::MinHashFamily family(options.coarse.minhash);
  std::vector<infoshield::MinHashSignature> signatures(n);
  v["lsh.signature_s"] = Timed(log, "lsh.signature", [&] {
    infoshield::ThreadPool::ParallelFor(threads, n, [&](size_t d) {
      signatures[d] = family.Signature(corpus.doc(static_cast<DocId>(d)).tokens);
    });
  });
  {
    infoshield::LshIndex lsh(options.coarse.minhash, options.coarse.lsh);
    v["lsh.index_build_s"] = Timed(log, "lsh.index_build", [&] {
      lsh.Build(signatures, threads);
    });
    const infoshield::LshIndex::Stats stats = lsh.ComputeStats();
    v["lsh.buckets"] = static_cast<double>(stats.num_buckets);
    v["lsh.max_bucket"] = static_cast<double>(stats.max_bucket);
    v["lsh.candidate_pairs"] = static_cast<double>(stats.candidate_pairs);
  }
  signatures.clear();

  // coarse
  infoshield::CoarseOptions coarse_options = options.coarse;
  coarse_options.num_threads = threads;
  infoshield::CoarseResult coarse;
  const double coarse_s = Timed(log, "coarse.run", [&] {
    coarse = infoshield::CoarseClustering(coarse_options).Run(corpus);
  });
  v["coarse.run_s"] = coarse_s;
  coarse_options.num_threads = 1;
  v["coarse.run_1t_s"] = Timed(log, "coarse.run_1t", [&] {
    const infoshield::CoarseResult serial =
        infoshield::CoarseClustering(coarse_options).Run(corpus);
    report.Check(serial.clusters == coarse.clusters &&
                     serial.doc_top_phrases == coarse.doc_top_phrases,
                 "coarse at 1 thread differs from coarse at " +
                     std::to_string(threads));
  });
  size_t largest = 0;
  for (const std::vector<DocId>& c : coarse.clusters) {
    largest = std::max(largest, c.size());
  }
  v["coarse.edges"] = static_cast<double>(coarse.num_edges);
  v["coarse.clusters"] = static_cast<double>(coarse.clusters.size());
  v["coarse.largest_cluster_share"] =
      Share(static_cast<double>(largest), static_cast<double>(n));

  // graph: the coarse result's edges replayed in canonical order.
  v["graph.replay_s"] = Timed(log, "graph.replay", [&] {
    infoshield::UnionFind uf(n);
    infoshield::CoarseEdgeAccumulator edges(options.coarse.max_phrase_degree,
                                            &uf);
    for (size_t d = 0; d < n; ++d) {
      for (infoshield::PhraseHash p : coarse.doc_top_phrases[d]) {
        edges.Add(static_cast<DocId>(d), p);
      }
    }
    infoshield::CoarseResult replay;
    infoshield::EmitCoarseComponents(uf, options.coarse, &replay);
    report.Check(replay.clusters == coarse.clusters,
                 "graph replay differs from the coarse components");
  });

  // core (fine): the pipeline's fan-out, each cluster timed on its worker.
  const infoshield::CostModel cost_model =
      infoshield::CostModel::ForVocabulary(corpus.vocab());
  const infoshield::FineClustering fine(options.fine);
  const size_t k = coarse.clusters.size();
  std::vector<infoshield::FineResult> fine_results(k);
  std::vector<std::pair<double, double>> cluster_time(k);
  const int fine_span = log.Begin("fine");
  infoshield::ThreadPool::ParallelFor(threads, k, [&](size_t ci) {
    const double start = log.Now();
    fine_results[ci] = fine.RunOnCluster(corpus, coarse.clusters[ci],
                                         cost_model, &coarse.doc_top_phrases);
    cluster_time[ci] = {start, log.Now()};
  });
  const double fine_s = log.End();
  infoshield::FineStageStats stats;
  double sum = 0.0;
  double max = 0.0;
  double templates = 0.0;
  for (size_t ci = 0; ci < k; ++ci) {
    log.Add("fine.cluster", cluster_time[ci].first, cluster_time[ci].second,
            fine_span);
    const double seconds = cluster_time[ci].second - cluster_time[ci].first;
    sum += seconds;
    max = std::max(max, seconds);
    stats.MergeFrom(fine_results[ci].stats);
    templates += static_cast<double>(fine_results[ci].templates.size());
  }
  fine_results.clear();
  v["fine.sum_cluster_s"] = sum;
  v["fine.max_cluster_s"] = max;
  v["fine.critical_path_share"] = Share(max, sum);
  v["fine.alignments"] = static_cast<double>(stats.alignments_computed);
  v["fine.consensus_probes"] = static_cast<double>(stats.consensus_probes);
  v["fine.cache_hit_rate"] =
      Share(static_cast<double>(stats.consensus_cache_hits),
            static_cast<double>(stats.consensus_probes));
  v["fine.slot_candidates"] =
      static_cast<double>(stats.slot_candidates_evaluated);
  v["fine.templates"] = templates;

  // io: the canonical JSON of the untraced result.
  std::string rewritten;
  v["io.json_write_s"] = Timed(log, "io.json_write", [&] {
    rewritten = infoshield::ResultToJson(result, corpus);
    report.Check(infoshield::WriteJsonFile(config.dir + "/out.json",
                                           rewritten)
                     .ok(),
                 "json rewrite");
  });
  v["io.json_bytes"] = static_cast<double>(rewritten.size());
  v["trace.pipeline_s"] = coarse_s + fine_s + v["io.json_write_s"];
  v["trace.overhead_ratio"] = Share(v["trace.pipeline_s"], untraced);

  // msa: each coarse cluster's first members aligned (NW) and fused (POA)
  // against its first member, the fine stage's first seed.
  double cells = 0.0;
  double peak_cells = 0.0;
  infoshield::AlignmentWorkspace workspace;
  auto probe_members = [&](const std::vector<DocId>& c) {
    return std::min(c.size(), kMsaMembersPerCluster + 1);
  };
  v["msa.nw_s"] = Timed(log, "msa.nw", [&] {
    for (const std::vector<DocId>& c : coarse.clusters) {
      const std::vector<TokenId>& a = corpus.doc(c[0]).tokens;
      for (size_t i = 1; i < probe_members(c); ++i) {
        const std::vector<TokenId>& b = corpus.doc(c[i]).tokens;
        infoshield::NeedlemanWunsch(a, b, options.fine.scoring, &workspace);
        cells += static_cast<double>(a.size()) * static_cast<double>(b.size());
        peak_cells = std::max(peak_cells, static_cast<double>(a.size() + 1) *
                                              static_cast<double>(b.size() + 1));
      }
    }
  });
  v["msa.nw_cells"] = cells;
  // An int score plus a uint8_t move per DP cell.
  v["msa.nw_table_peak_mb"] = peak_cells * 5.0 / 1e6;
  v["msa.poa_s"] = Timed(log, "msa.poa", [&] {
    for (const std::vector<DocId>& c : coarse.clusters) {
      infoshield::PoaGraph graph(corpus.doc(c[0]).tokens,
                                 options.fine.scoring);
      for (size_t i = 1; i < probe_members(c); ++i) {
        graph.AddSequence(corpus.doc(c[i]).tokens);
      }
    }
  });

  // incremental: the same corpus, ending in a few small batches.
  const size_t base_docs =
      n - std::min(n / 2, kProbeBatches * kProbeBatchDocs);
  infoshield::IncrementalInfoShield engine(options);
  const auto begin = inputs.texts.begin();
  Timed(log, "incremental.cold", [&] {
    const auto stats = engine.IngestBatch(
        std::vector<std::string>(begin, begin + static_cast<ptrdiff_t>(base_docs)));
    report.Check(stats.ok(), "cold ingest: " + stats.status().ToString());
  });
  double batches = 0.0;
  double df = 0.0, rescore = 0.0, graph = 0.0, refine = 0.0;
  double grew = 0.0, rebuilt = 0.0, reused = 0.0, clusters = 0.0, dirty = 0.0;
  log.Begin("incremental.updates");
  for (size_t i = base_docs; i < n; i += kProbeBatchDocs) {
    const size_t end = std::min(i + kProbeBatchDocs, n);
    const auto stats = engine.IngestBatch(std::vector<std::string>(
        begin + static_cast<ptrdiff_t>(i), begin + static_cast<ptrdiff_t>(end)));
    if (!stats.ok()) {
      report.Check(false, "ingest: " + stats.status().ToString());
      break;
    }
    batches += 1.0;
    df += stats->df_seconds;
    rescore += stats->rescore_seconds;
    graph += stats->graph_seconds;
    refine += stats->fine_seconds;
    grew += stats->vocab_grew ? 1.0 : 0.0;
    rebuilt += stats->graph_rebuilt ? 1.0 : 0.0;
    reused += static_cast<double>(stats->reused_clusters);
    clusters += static_cast<double>(stats->num_coarse_clusters);
    dirty += static_cast<double>(stats->dirty_cluster_docs);
  }
  log.End();
  report.Check(
      infoshield::ResultToJson(engine.result(), engine.corpus()) == json,
      "incremental result differs from the batch pipeline");
  v["incremental.df_s"] = df;
  v["incremental.rescore_s"] = rescore;
  v["incremental.graph_s"] = graph;
  v["incremental.fine_s"] = refine;
  v["incremental.vocab_grew_frac"] = Share(grew, batches);
  v["incremental.graph_rebuilt_frac"] = Share(rebuilt, batches);
  v["incremental.reused_cluster_frac"] = Share(reused, clusters);
  v["incremental.dirty_docs_mean"] = Share(dirty, batches);

  log.End();
  if (!config.spans_path.empty()) {
    const Status written = log.Write(config.spans_path);
    report.Check(written.ok(), "span file: " + written.ToString());
  }
  return report;
}

}  // namespace perfbench
