#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace infoshield {

namespace {

// Worker threads log concurrently (LOG from inside ParallelFor tasks),
// so the severity floor is an atomic. It is a lone value that orders
// nothing else, so relaxed loads and stores suffice.
std::atomic<LogSeverity> g_min_severity{LogSeverity::kInfo};

const char* SeverityTag(LogSeverity s) {
  switch (s) {
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void SetMinLogSeverity(LogSeverity severity) {
  g_min_severity.store(severity, std::memory_order_relaxed);
}

LogSeverity MinLogSeverity() {
  return g_min_severity.load(std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(const char* file, int line, LogSeverity severity)
    : file_(file), line_(line), severity_(severity) {}

LogMessage::~LogMessage() {
  if (severity_ >= MinLogSeverity() || severity_ == LogSeverity::kFatal) {
    std::fprintf(stderr, "[%s %s:%d] %s\n", SeverityTag(severity_),
                 Basename(file_), line_, stream_.str().c_str());
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace infoshield
