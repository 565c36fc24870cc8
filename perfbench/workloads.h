// Workloads of the end-to-end benchmark: what each one generates, how the
// pipeline is configured for it, and how its output is scored and checked.
//
// Every workload is generated from one seed into a directory holding
// docs.csv (columns text, positive, label) and manifest.json (the
// generator, its parameters, and the document and token counts). The
// measured program reads only those files. `positive` and `label` are the
// generator's ground truth (suspicious or not, and its cluster id, -1 for
// none).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/infoshield.h"
#include "util/status.h"

namespace perfbench {

// Investigator mode: one CSV dump in, canonical JSON out.
struct Workload {
  std::string_view name;
};

// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);

// Generates the workload's inputs into `dir` (which must exist). `toy`
// shrinks every generator to a few hundred documents for the self-test.
infoshield::Status GenerateInputs(const Workload& workload, uint64_t seed,
                                  bool toy, const std::string& dir);

// The pipeline configuration every workload runs: defaults (the tf-idf
// coarse backend) at `threads` workers.
infoshield::InfoShieldOptions PipelineOptions(size_t threads);

std::string DocsCsvPath(const std::string& dir);

// docs.csv, parsed.
struct Inputs {
  // Every document, in corpus order.
  std::vector<std::string> texts;
  std::vector<bool> positive;
  std::vector<int64_t> label;
};

infoshield::Result<Inputs> ReadInputs(const std::string& dir);

struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  double ari = 0.0;
};

// Suspicious (has a template) vs. the generator's positives, and ARI of
// the template labels against the generator's cluster labels.
Quality Score(const infoshield::InfoShieldResult& result,
              const Inputs& inputs);

// FNV-1a 64 of the canonical JSON, as 16 hex digits.
std::string Digest(std::string_view json);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
