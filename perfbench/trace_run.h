// The traced run: the same inputs as the timed run, with each layer's
// public entry point called in sequence and timed from outside by a span
// (name, start, end, parent). Spans are kept in memory and written to
// `spans_path` at the end; the per-layer values go into `values`.

#ifndef PERFBENCH_TRACE_RUN_H_
#define PERFBENCH_TRACE_RUN_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// What a run reports: operations attempted and failed (a failure is any
// error Status or output mismatch, each explained on stderr), values by
// metric name, and raw timing samples that run.py reduces to medians
// and percentiles.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;

  // Counts one operation; failed unless `ok`.
  void Check(bool ok, const std::string& what);

  // The report as one line of JSON.
  std::string ToJson() const;
};

// Flips one byte of `json` when `corrupt` (the self-test of the checks).
inline void Corrupt(bool corrupt, std::string* json) {
  if (corrupt && !json->empty()) (*json)[json->size() / 2] ^= 1;
}

struct TraceConfig {
  std::string dir;
  size_t threads = 1;
  // The 1-thread reference digest of the canonical JSON.
  std::string digest;
  std::string spans_path;
  // Flip one byte of the pipeline's JSON (self-test of the checks).
  bool corrupt = false;
};

Report RunTraced(const Inputs& inputs, const TraceConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_RUN_H_
