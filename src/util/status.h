// Status and Result<T>: exception-free error propagation across API
// boundaries, in the style of absl::Status / arrow::Result.
//
// Functions that can fail return Status (no payload) or Result<T>
// (payload-or-error). Internal invariant violations use CHECK from
// util/logging.h instead.

#ifndef INFOSHIELD_UTIL_STATUS_H_
#define INFOSHIELD_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace infoshield {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kResourceExhausted,
};

// Human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

// [[nodiscard]] at class level: any call that returns a Status (or a
// Result) and ignores it fails to compile, because the build promotes
// -Wunused-result to an error (CMakeLists.txt). Deliberate discards
// must be spelled `(void)expr`.
class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

std::ostream& operator<<(std::ostream& os, const Status& status);

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or an error Status keeps call
  // sites readable: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : state_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(state_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(state_);
  }

  // Pre-condition: ok(). Checked.
  const T& value() const&;
  T& value() &;
  T&& value() &&;

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    if (ok()) return std::get<T>(state_);
    return fallback;
  }

 private:
  std::variant<T, Status> state_;
};

namespace internal {
[[noreturn]] void DieBadResultAccess(const Status& status);
}  // namespace internal

template <typename T>
const T& Result<T>::value() const& {
  if (!ok()) internal::DieBadResultAccess(status());
  return std::get<T>(state_);
}

template <typename T>
T& Result<T>::value() & {
  if (!ok()) internal::DieBadResultAccess(status());
  return std::get<T>(state_);
}

template <typename T>
T&& Result<T>::value() && {
  if (!ok()) internal::DieBadResultAccess(status());
  return std::move(std::get<T>(state_));
}

// Propagates a non-OK status to the caller.
#define INFOSHIELD_RETURN_IF_ERROR(expr)              \
  do {                                                \
    ::infoshield::Status _st = (expr);                \
    if (!_st.ok()) return _st;                        \
  } while (0)

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_STATUS_H_
