// Lightweight status / error-reporting primitives used across the library.
//
// We deliberately avoid exceptions on hot paths; functions that can fail
// return a `Status` (or `StatusOr<T>`), and programming errors are caught
// by the DLACEP_CHECK family of macros, which abort with a message.

#ifndef DLACEP_COMMON_STATUS_H_
#define DLACEP_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace dlacep {

/// Error categories mirrored loosely after absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kUnavailable,
  kBudgetExceeded,
};

/// Returns a human-readable name for a status code.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kBudgetExceeded: return "BUDGET_EXCEEDED";
  }
  return "UNKNOWN";
}

/// Value-semantic status: either OK or a code plus message.
class Status {
 public:
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
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// Transient failure: the operation may succeed if retried (used by
  /// stream sources for flaky reads; the runtime retries with backoff).
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// A cooperative engine budget (partial-match or deadline) was
  /// exhausted and the evaluation aborted. Unlike kResourceExhausted
  /// this is an expected, per-query recoverable condition: the engine
  /// stays reusable and the serve layer's circuit breaker absorbs it.
  static Status BudgetExceeded(std::string msg) {
    return Status(StatusCode::kBudgetExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    s += ": ";
    s += message_;
    return s;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Minimal StatusOr analog.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value)  // NOLINT(runtime/explicit)
      : value_(std::move(value)), status_(Status::Ok()) {}
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  /// OK when a value is held.
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return *value_;
  }
  T& value() & {
    if (!ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return *value_;
  }
  T&& value() && {
    if (!ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  std::optional<T> value_;
  Status status_ = Status::Internal("uninitialized StatusOr");
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const std::string& extra) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s %s\n", file, line, expr,
               extra.c_str());
  std::abort();
}
}  // namespace internal

}  // namespace dlacep

/// Aborts the process when `cond` is false. Active in all build types:
/// internal invariants in a CEP engine must never be silently violated.
#define DLACEP_CHECK(cond)                                          \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::dlacep::internal::CheckFailed(__FILE__, __LINE__, #cond, ""); \
    }                                                               \
  } while (0)

#define DLACEP_CHECK_MSG(cond, msg)                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream oss_;                                        \
      oss_ << "(" << (msg) << ")";                                    \
      ::dlacep::internal::CheckFailed(__FILE__, __LINE__, #cond,      \
                                      oss_.str());                    \
    }                                                                 \
  } while (0)

#define DLACEP_CHECK_BINOP(a, b, op)                                       \
  do {                                                                     \
    if (!((a)op(b))) {                                                     \
      std::ostringstream oss_;                                             \
      oss_ << "(" << (a) << " vs " << (b) << ")";                          \
      ::dlacep::internal::CheckFailed(__FILE__, __LINE__, #a " " #op " " #b, \
                                      oss_.str());                         \
    }                                                                      \
  } while (0)

#define DLACEP_CHECK_EQ(a, b) DLACEP_CHECK_BINOP(a, b, ==)
#define DLACEP_CHECK_NE(a, b) DLACEP_CHECK_BINOP(a, b, !=)
#define DLACEP_CHECK_LT(a, b) DLACEP_CHECK_BINOP(a, b, <)
#define DLACEP_CHECK_LE(a, b) DLACEP_CHECK_BINOP(a, b, <=)
#define DLACEP_CHECK_GT(a, b) DLACEP_CHECK_BINOP(a, b, >)
#define DLACEP_CHECK_GE(a, b) DLACEP_CHECK_BINOP(a, b, >=)

/// Propagates a non-OK status to the caller.
#define DLACEP_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::dlacep::Status status_ = (expr);        \
    if (!status_.ok()) return status_;        \
  } while (0)

#endif  // DLACEP_COMMON_STATUS_H_
