#include "util/audit.h"
#include "util/status.h"

#include <atomic>

namespace infoshield {
namespace audit {

namespace {
// The gate is a single flag read on every hook, and a relaxed load is
// both race-free and contention-free.
std::atomic<bool> g_auditing_enabled{true};

// Finish() counts an audit before its failure, the failure with release;
// GetAuditStats() reads the failures first, with acquire. A snapshot that
// sees a failure therefore sees the audit counted before it, so it never
// shows more failures than audits.
std::atomic<size_t> g_audits_finished{0};
std::atomic<size_t> g_audits_failed{0};
}  // namespace

bool AuditingEnabled() {
  return g_auditing_enabled.load(std::memory_order_relaxed);
}

void SetAuditingEnabled(bool enabled) {
  g_auditing_enabled.store(enabled, std::memory_order_relaxed);
}

AuditStats GetAuditStats() {
  AuditStats stats;
  stats.failed = g_audits_failed.load(std::memory_order_acquire);
  stats.finished = g_audits_finished.load(std::memory_order_relaxed);
  return stats;
}

void ResetAuditStats() {
  g_audits_failed.store(0, std::memory_order_relaxed);
  g_audits_finished.store(0, std::memory_order_relaxed);
}

bool Auditor::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

Status Auditor::Finish() const {
  g_audits_finished.fetch_add(1, std::memory_order_relaxed);
  if (failures_.empty()) return Status::Ok();
  g_audits_failed.fetch_add(1, std::memory_order_release);
  std::string message = subject_;
  message += ": ";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) message += "; ";
    message += failures_[i];
  }
  return Status::Internal(std::move(message));
}

}  // namespace audit
}  // namespace infoshield
