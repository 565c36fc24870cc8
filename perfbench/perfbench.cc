// The measured program of the end-to-end benchmark (driven by run.py).
//
//   perfbench gen   --workload W --seed N --dir D [--toy]
//       writes D/docs.csv and D/manifest.json from the seed.
//   perfbench ref   --workload W --dir D
//       prints the digest of the canonical JSON of a 1-thread
//       InfoShield::Run over every document of D/docs.csv.
//   perfbench run   --workload W --dir D --seconds S --threads T --digest X
//       the timed run (no spans): set-up, then closed-loop operations for
//       S seconds, each checked against the reference digest.
//   perfbench trace --workload W --dir D --threads T --digest X --spans F
//       the traced run (trace_run.cc).
//
// run and trace print one JSON line: {"attempted", "failed", "values",
// "samples"}. `--corrupt` flips one byte of every output before it is
// checked, so each check must count a failure.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/infoshield.h"
#include "io/csv.h"
#include "io/json_writer.h"
#include "trace_run.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using infoshield::Corpus;
using infoshield::InfoShield;
using infoshield::InfoShieldResult;
using infoshield::Result;
using infoshield::Status;
using infoshield::WallTimer;

// Set-up is repeated this many times before the timed loop (each timed
// operation adds one more set-up sample), so setup_s is a median.
constexpr int kSetupReps = 3;
// Batch operations per run, however long they take, so that pipeline_s
// is a median of at least this many samples.
constexpr int kMinBatchOperations = 3;

struct RunConfig {
  std::string dir;
  double seconds = 1.0;
  size_t threads = 1;
  std::string digest;
  bool corrupt = false;
};

std::string OutputPath(const std::string& dir) { return dir + "/out.json"; }

void AddQuality(const InfoShieldResult& result, const Inputs& inputs,
                Report* report) {
  const Quality q = Score(result, inputs);
  report->values["precision"] = q.precision;
  report->values["recall"] = q.recall;
  report->values["ari"] = q.ari;
}

// One batch operation: CSV -> Corpus (set-up) -> Run -> canonical JSON on
// disk (pipeline), repeated closed-loop until `seconds` have passed and
// at least kMinBatchOperations ran. A process's first operation runs
// slowest, as every CLI run does: the medians look past it, batch_p90_s
// keeps it.
Report RunBatch(const Inputs& inputs, const RunConfig& config) {
  Report report;
  const std::string csv = DocsCsvPath(config.dir);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WallTimer timer;
    Result<Corpus> corpus = infoshield::LoadCorpusFromCsv(csv, "text");
    report.samples["setup_s"].push_back(timer.ElapsedSeconds());
    report.Check(corpus.ok(), "load " + csv);
  }
  const InfoShield shield(PipelineOptions(config.threads));
  double docs = 0.0;
  double busy = 0.0;
  // Returns false when the input cannot be loaded.
  auto operation = [&] {
    WallTimer timer;
    Result<Corpus> corpus = infoshield::LoadCorpusFromCsv(csv, "text");
    const double load = timer.ElapsedSeconds();
    if (!corpus.ok()) {
      report.Check(false, corpus.status().ToString());
      return false;
    }
    const InfoShieldResult result = shield.Run(*corpus);
    std::string json = infoshield::ResultToJson(result, *corpus);
    Corrupt(config.corrupt, &json);
    const Status written = infoshield::WriteJsonFile(OutputPath(config.dir),
                                                     json);
    const double total = timer.ElapsedSeconds();
    report.samples["setup_s"].push_back(load);
    report.samples["pipeline_s"].push_back(total - load);
    report.samples["batch_s"].push_back(total);
    docs += static_cast<double>(corpus->size());
    busy += total;
    const Status valid = infoshield::ValidateInfoShieldResult(result, *corpus);
    const std::string digest = Digest(json);
    report.Check(written.ok() && valid.ok() && digest == config.digest,
                 "batch output: write " + written.ToString() + ", validate " +
                     valid.ToString() + ", digest " + digest + " vs " +
                     config.digest);
    if (!report.values.count("precision")) AddQuality(result, inputs, &report);
    return true;
  };
  WallTimer clock;
  for (int done = 1; operation(); ++done) {
    if (done >= kMinBatchOperations &&
        clock.ElapsedSeconds() >= config.seconds) {
      break;
    }
  }
  report.values["ingested_docs"] = docs;
  report.values["ingest_seconds"] = busy;
  return report;
}

std::string ReferenceDigest(const Inputs& inputs) {
  Corpus corpus;
  corpus.AddBatch(inputs.texts, /*num_threads=*/1);
  const InfoShield shield(PipelineOptions(/*threads=*/1));
  return Digest(infoshield::ResultToJson(shield.Run(corpus), corpus));
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench gen|ref|run|trace [flags]");
  const std::string command = argv[1];
  infoshield::FlagParser flags;
  flags.AddString("workload", "", "workload name")
      .AddString("dir", "", "directory of the generated inputs")
      .AddInt("seed", 1, "workload seed (gen)")
      .AddBool("toy", false, "self-test scale (gen)")
      .AddDouble("seconds", 1.0, "timed duration (run)")
      .AddInt("threads", 1, "worker threads (run, trace)")
      .AddString("digest", "", "reference digest (run, trace)")
      .AddString("spans", "", "span file to write (trace)")
      .AddBool("corrupt", false, "corrupt every output (self-test)");
  const Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.ToString());
  const Workload* workload = FindWorkload(flags.GetString("workload"));
  if (workload == nullptr) {
    return Fail("unknown workload '" + flags.GetString("workload") + "'");
  }
  const std::string dir = flags.GetString("dir");
  if (dir.empty()) return Fail("--dir is required");
  const size_t threads = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("threads")));

  if (command == "gen") {
    const Status status =
        GenerateInputs(*workload, static_cast<uint64_t>(flags.GetInt("seed")),
                       flags.GetBool("toy"), dir);
    return status.ok() ? 0 : Fail(status.ToString());
  }
  Result<Inputs> inputs = ReadInputs(dir);
  if (!inputs.ok()) return Fail(inputs.status().ToString());
  if (command == "ref") {
    std::printf("%s\n", ReferenceDigest(*inputs).c_str());
    return 0;
  }
  Report report;
  if (command == "run") {
    const RunConfig config{dir, flags.GetDouble("seconds"), threads,
                           flags.GetString("digest"), flags.GetBool("corrupt")};
    report = RunBatch(*inputs, config);
  } else if (command == "trace") {
    const TraceConfig config{dir, threads, flags.GetString("digest"),
                             flags.GetString("spans"),
                             flags.GetBool("corrupt")};
    report = RunTraced(*inputs, config);
  } else {
    return Fail("unknown command '" + command + "'");
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
