// infoshield — command-line front end for running the pipeline on a CSV
// of documents.
//
//   infoshield --input ads.csv --text-column text
//   infoshield --input tweets.tsv --separator tab --html report.html
//   infoshield --input ads.csv --json result.json --max-ngram 4
//
// Prints the discovered templates (ANSI colors on a TTY-ish default) and
// optionally writes HTML / JSON reports.

#include <cstdio>
#include <fstream>
#include <string>

#include "coarse/coarse_clustering.h"
#include "core/infoshield.h"
#include "core/ranking.h"
#include "core/slot_analysis.h"
#include "core/visualize.h"
#include "io/csv.h"
#include "io/json_writer.h"
#include "util/flags.h"
#include "util/timer.h"

namespace infoshield {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("input", "", "CSV/TSV file of documents (required)")
      .AddString("text-column", "text", "name of the document-text column")
      .AddString("separator", "comma", "field separator: comma | tab")
      .AddString("html", "", "write an HTML cluster report to this path")
      .AddString("json", "", "write a JSON result dump to this path")
      .AddString("coarse-backend", "tfidf",
                 "coarse candidate generator: tfidf (paper-faithful "
                 "doc-phrase graph) | minhash-lsh (shingled MinHash + "
                 "banded LSH, DESIGN.md §16)")
      .AddInt("max-ngram", 5, "max phrase length for coarse tf-idf")
      .AddInt("lsh-hashes", 128,
              "MinHash signature width (minhash-lsh backend)")
      .AddInt("lsh-bands", 32,
              "LSH bands; bands * rows must equal lsh-hashes")
      .AddInt("lsh-rows", 4, "signature rows per LSH band")
      .AddInt("shingle-k", 3,
              "tokens per MinHash shingle (minhash-lsh backend)")
      .AddInt("min-cluster-size", 2,
              "smallest coarse component kept (2 = drop singletons)")
      .AddInt("max-docs-per-template", 10,
              "member documents rendered per template (0 = all)")
      .AddInt("threads", 1,
              "worker threads for both stages: the partitioned coarse "
              "pipeline and the per-cluster fine stage (0 = all cores); "
              "results are identical for any value")
      .AddBool("color", true, "ANSI colors in terminal output")
      .AddBool("stats", true, "print per-cluster compression statistics")
      .AddBool("rank", true,
               "order templates by suspiciousness (compression slack)")
      .AddBool("slots", false, "profile each template's slot content")
      .AddBool("help", false, "show usage");

  Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", parse_status.ToString().c_str(),
                 flags.Usage("infoshield").c_str());
    return 2;
  }
  if (flags.GetBool("help") || flags.GetString("input").empty()) {
    std::fputs(flags.Usage("infoshield").c_str(),
               flags.GetBool("help") ? stdout : stderr);
    return flags.GetBool("help") ? 0 : 2;
  }

  const char separator =
      flags.GetString("separator") == "tab" ? '\t' : ',';
  Result<Corpus> corpus = LoadCorpusFromCsv(
      flags.GetString("input"), flags.GetString("text-column"), separator);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu documents (%zu distinct tokens)\n",
              corpus->size(), corpus->vocab().size());

  InfoShieldOptions options;
  options.coarse.tfidf.max_ngram =
      static_cast<size_t>(flags.GetInt("max-ngram"));
  options.coarse.min_cluster_size =
      static_cast<size_t>(flags.GetInt("min-cluster-size"));
  options.num_threads = static_cast<size_t>(flags.GetInt("threads"));

  const std::string backend = flags.GetString("coarse-backend");
  if (backend == "minhash-lsh") {
    options.coarse.backend = CoarseBackend::kMinhashLsh;
  } else if (backend != "tfidf") {
    std::fprintf(stderr,
                 "error: unknown --coarse-backend '%s' (tfidf | "
                 "minhash-lsh)\n",
                 backend.c_str());
    return 2;
  }
  options.coarse.minhash.num_hashes =
      static_cast<size_t>(flags.GetInt("lsh-hashes"));
  options.coarse.minhash.shingle_k =
      static_cast<size_t>(flags.GetInt("shingle-k"));
  options.coarse.lsh.bands = static_cast<size_t>(flags.GetInt("lsh-bands"));
  options.coarse.lsh.rows = static_cast<size_t>(flags.GetInt("lsh-rows"));
  if (options.coarse.backend == CoarseBackend::kMinhashLsh) {
    const Status lsh_status =
        options.coarse.lsh.Validate(options.coarse.minhash);
    if (!lsh_status.ok()) {
      std::fprintf(stderr, "error: %s\n", lsh_status.ToString().c_str());
      return 2;
    }
  }

  WallTimer timer;
  InfoShield shield(options);
  InfoShieldResult result = shield.Run(*corpus);
  std::printf(
      "found %zu templates covering %zu suspicious documents in %.2fs "
      "(coarse %.2fs, fine %.2fs)\n\n",
      result.templates.size(), result.num_suspicious(),
      timer.ElapsedSeconds(), result.coarse_seconds, result.fine_seconds);

  VisualizeOptions viz;
  viz.use_color = flags.GetBool("color");
  viz.max_docs = static_cast<size_t>(flags.GetInt("max-docs-per-template"));
  const CostModel cost_model = CostModel::ForVocabulary(corpus->vocab());
  // Presentation order: most suspicious first when ranking is on.
  std::vector<size_t> order;
  if (flags.GetBool("rank")) {
    for (const RankedTemplate& r :
         RankTemplates(result, *corpus, cost_model)) {
      order.push_back(r.template_index);
    }
  } else {
    for (size_t t = 0; t < result.templates.size(); ++t) order.push_back(t);
  }
  for (size_t t : order) {
    const TemplateCluster& cluster = result.templates[t];
    std::fputs(RenderTemplateAnsi(cluster, *corpus, viz).c_str(), stdout);
    if (flags.GetBool("slots")) {
      std::fputs(
          RenderSlotProfiles(AnalyzeSlots(cluster, *corpus)).c_str(),
          stdout);
    }
    std::vector<size_t> anomalies =
        FlagAnomalousMembers(cluster, *corpus, cost_model);
    if (!anomalies.empty()) {
      std::printf("  anomalous members (poor compression):");
      for (size_t m : anomalies) std::printf(" #%u", cluster.members[m]);
      std::printf("\n");
    }
    std::fputs("\n", stdout);
  }

  if (flags.GetBool("stats")) {
    std::printf("%-8s %-6s %-4s %-10s %-10s\n", "cluster", "docs", "t",
                "rel.len", "bound");
    for (const ClusterStats& s : result.cluster_stats) {
      if (s.num_templates == 0) continue;
      std::printf("%-8zu %-6zu %-4zu %-10.4f %-10.4f\n",
                  s.coarse_cluster_index, s.num_docs, s.num_templates,
                  s.relative_length, s.lower_bound);
    }
  }

  if (!flags.GetString("html").empty()) {
    std::ofstream out(flags.GetString("html"));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags.GetString("html").c_str());
      return 1;
    }
    out << RenderReportHtml(result.templates, *corpus, viz);
    std::printf("wrote HTML report: %s\n", flags.GetString("html").c_str());
  }
  if (!flags.GetString("json").empty()) {
    Status write_status = WriteJsonFile(flags.GetString("json"),
                                        ResultToJson(result, *corpus));
    if (!write_status.ok()) {
      std::fprintf(stderr, "error: %s\n", write_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON result: %s\n", flags.GetString("json").c_str());
  }
  return 0;
}

}  // namespace
}  // namespace infoshield

int main(int argc, char** argv) { return infoshield::Main(argc, argv); }
