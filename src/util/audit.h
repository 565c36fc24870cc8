// Deep invariant auditing.
//
// Every core data structure exposes a `ValidateInvariants()` entry point
// (or a free `Validate...()` function) that walks the structure and
// returns Status::Internal listing every violated invariant — a broken
// topological order, a slot table out of sync with its template, an edit
// trace that no longer replays to the original document. The auditors are
// always compiled and callable (tests exercise them directly); the *calls
// at stage boundaries* inside the algorithms are compiled in only when
// the build defines INFOSHIELD_AUDIT (CMake option of the same name) and
// can additionally be switched off at runtime with SetAuditingEnabled.
//
// Usage inside a module, at a stage boundary:
//
//   INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
//
// In an audited build this evaluates the expression and CHECK-fails with
// the full failure list if the Status is not OK; otherwise it compiles to
// nothing (the expression is not evaluated).
//
// Auditors report via Status rather than CHECKing directly so that tests
// can corrupt a structure and assert the auditor *reports* it.

#ifndef INFOSHIELD_UTIL_AUDIT_H_
#define INFOSHIELD_UTIL_AUDIT_H_

#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace infoshield {
namespace audit {

// Runtime gate for the stage-boundary hooks. Defaults to true; only
// consulted in builds compiled with INFOSHIELD_AUDIT.
bool AuditingEnabled();
void SetAuditingEnabled(bool enabled);

// Process-wide audit tallies. Auditors run concurrently on ParallelFor
// workers (the fine stage audits every cluster inside ParallelFor), so
// the counters are atomics in audit.cc. GetAuditStats is safe from any
// thread and never reports more failures than finished audits;
// ResetAuditStats is meant for moments when no auditor is finishing.
struct AuditStats {
  size_t finished = 0;  // Auditor::Finish() calls
  size_t failed = 0;    // ... of which returned a non-OK Status
};
AuditStats GetAuditStats();
void ResetAuditStats();

// Accumulates invariant failures for one subject (e.g. "PoaGraph") and
// condenses them into a single Status.
class Auditor {
 public:
  explicit Auditor(std::string subject) : subject_(std::move(subject)) {}

  // Records a failure when `ok` is false; returns `ok` so call sites can
  // skip dependent checks (e.g. don't index with an out-of-range rank).
  bool Expect(bool ok, const std::string& what);

  bool ok() const { return failures_.empty(); }
  size_t num_failures() const { return failures_.size(); }

  // OK if nothing failed, else Internal("<subject>: f1; f2; ...").
  Status Finish() const;

 private:
  std::string subject_;
  std::vector<std::string> failures_;
};

}  // namespace audit
}  // namespace infoshield

// Stage-boundary hook: audits only in INFOSHIELD_AUDIT builds, dies with
// the failure list on violation. `status_expr` must yield a Status and is
// not evaluated in non-audit builds.
#if defined(INFOSHIELD_AUDIT)
#define INFOSHIELD_AUDIT_INVARIANTS(status_expr)                \
  do {                                                          \
    if (::infoshield::audit::AuditingEnabled()) {               \
      ::infoshield::Status _audit_st = (status_expr);           \
      CHECK(_audit_st.ok()) << "invariant audit failed: "       \
                            << _audit_st.ToString();            \
    }                                                           \
  } while (0)
#else
#define INFOSHIELD_AUDIT_INVARIANTS(status_expr) ((void)0)
#endif

#endif  // INFOSHIELD_UTIL_AUDIT_H_
