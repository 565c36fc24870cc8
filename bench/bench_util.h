// Shared helpers for the paper-reproduction benchmark harnesses.

#ifndef INFOSHIELD_BENCH_BENCH_UTIL_H_
#define INFOSHIELD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/infoshield.h"
#include "eval/metrics.h"
#include "io/json_writer.h"

namespace infoshield {
namespace bench {

// `git describe --always --dirty --tags` of the working tree, or
// "unknown" when git (or the repo) is unavailable — benches run from
// the build tree, which lives inside the checkout.
std::string GitDescribe();

// The canonical BENCH_*.json envelope shared by the harnesses that
// write one (bench_fig2_scalability, bench_micro): one top-level object
// opened with a "schema" name (e.g. "infoshield-bench-fig2/1") and a
// "git_describe" provenance field, an arbitrary harness-driven body via
// writer(), and a uniform write-with-trailing-newline + error-report
// tail via Finish. Keeps the emission idiom (and its failure handling)
// in one place instead of hand-rolled per bench.
class BenchJson {
 public:
  explicit BenchJson(const std::string& schema);

  // The underlying writer, positioned inside the top-level object.
  JsonWriter& writer() { return writer_; }
  JsonWriter& Key(std::string_view key) { return writer_.Key(key); }

  // Flat metric map emitted as "<name>": value pairs (std::map so the
  // key order — and therefore the bytes — is deterministic).
  void Metrics(const std::map<std::string, double>& metrics);

  // Closes the top-level object, writes the document (with trailing
  // newline) to `path`, and prints "wrote <path>". Returns a main()
  // exit code: 0 on success, 1 (with a stderr report) on I/O failure.
  // Call exactly once.
  int Finish(const std::string& path);

 private:
  JsonWriter writer_;
};

// Binary metrics of an InfoShield run against per-document truth.
inline BinaryMetrics ScoreRun(const InfoShieldResult& result,
                              const std::vector<bool>& truth) {
  std::vector<bool> predicted;
  predicted.reserve(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    predicted.push_back(result.IsSuspicious(static_cast<DocId>(i)));
  }
  return ComputeBinaryMetrics(predicted, truth);
}

// Least-squares fit y = a*x + b; returns (slope, intercept, r_squared).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

inline LinearFit FitLine(const std::vector<double>& x,
                         const std::vector<double>& y) {
  LinearFit fit;
  const size_t n = x.size();
  if (n < 2) return fit;
  double sx = 0;
  double sy = 0;
  double sxx = 0;
  double sxy = 0;
  double syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (size_t i = 0; i < n; ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

inline void PrintHeader(const char* title) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title);
  std::printf("=====================================================\n");
}

}  // namespace bench
}  // namespace infoshield

#endif  // INFOSHIELD_BENCH_BENCH_UTIL_H_
