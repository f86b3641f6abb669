// Error handling primitives: Status and Result<T>.
//
// PRESTO never throws across API boundaries. Operations that can fail in expected ways
// (a cache miss, an exhausted flash device, an unreachable sensor) return a Status or a
// Result<T>; programming errors abort via PRESTO_CHECK.

#ifndef SRC_UTIL_RESULT_H_
#define SRC_UTIL_RESULT_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/util/assert.h"

namespace presto {

// Canonical error space, modeled on absl::StatusCode. Keep the set small: a code should
// tell the caller *what to do*, not describe the failure (the message does that).
enum class StatusCode {
  kOk = 0,
  // The requested datum does not exist (e.g. a time range never archived).
  kNotFound,
  kInvalidArgument,     // caller passed something malformed
  kResourceExhausted,   // out of storage / queue space / energy budget
  kUnavailable,         // transient: node asleep, link down, proxy failed over
  kDeadlineExceeded,    // latency bound could not be met
  kFailedPrecondition,  // object not in the right state (e.g. unmounted store)
  kOutOfRange,          // index/time outside the valid domain
  kDataLoss,            // archived data was aged out or corrupted beyond recovery
  kInternal,            // invariant violation that was recoverable enough to report
};

// Human-readable name of a status code ("kOk" -> "OK", etc.).
const char* StatusCodeName(StatusCode code);

// A cheap value type describing the outcome of an operation. An OK status is its code
// and a null pointer: building, copying, moving and destroying one touches no heap,
// which matters because every ByteReader holds one and every decoder returns one. The
// message lives out of line, allocated only for a non-OK status with a non-empty message;
// message() is a shared empty string otherwise (so an OK status never carries text).
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message);
  Status(const Status& other)
      : code_(other.code_), message_(other.message_ ? Clone(*other.message_) : nullptr) {}
  Status(Status&& other) noexcept = default;
  Status& operator=(const Status& other) {
    if (this != &other) {
      code_ = other.code_;
      message_ = other.message_ ? Clone(*other.message_) : nullptr;
    }
    return *this;
  }
  Status& operator=(Status&& other) noexcept = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_ ? *message_ : EmptyMessage(); }

  // "OK" or "kNotFound: no archive segment covers [t1,t2)".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  static std::unique_ptr<const std::string> Clone(const std::string& message);
  static const std::string& EmptyMessage();

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<const std::string> message_;
};

// Convenience constructors, mirroring absl.
inline Status OkStatus() { return Status(); }
Status NotFoundError(std::string message);
Status InvalidArgumentError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status DataLossError(std::string message);
Status InternalError(std::string message);

// Result<T> carries either a value or a non-OK Status. Accessing the value of a failed
// Result is a fatal error, so call sites either check ok() or propagate.
template <typename T>
class Result {
 public:
  // Implicit from value and from Status so `return value;` / `return NotFoundError(...)`
  // both work, as with absl::StatusOr.
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    PRESTO_CHECK_MSG(!status_.ok(), "Result constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    PRESTO_CHECK_MSG(ok(), "value() called on failed Result");
    return *value_;
  }
  T& value() & {
    PRESTO_CHECK_MSG(ok(), "value() called on failed Result");
    return *value_;
  }
  T&& value() && {
    PRESTO_CHECK_MSG(ok(), "value() called on failed Result");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value, or `fallback` when the operation failed.
  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;  // kOk iff value_ present
};

}  // namespace presto

// Propagates a non-OK status from an expression, absl-style.
#define PRESTO_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::presto::Status status_macro_ = (expr);  \
    if (!status_macro_.ok()) {                \
      return status_macro_;                   \
    }                                         \
  } while (0)

// Aborts, naming the status message, when a config or invariant check fails: how a
// constructor enforces the Validate(const T&) that a decoder reports as an error.
#define PRESTO_CHECK_OK(expr)                                  \
  do {                                                         \
    const ::presto::Status status_macro_ = (expr);             \
    if (!status_macro_.ok()) {                                 \
      ::presto::CheckFailed(__FILE__, __LINE__, #expr,         \
                            status_macro_.message().c_str());  \
    }                                                          \
  } while (0)

#endif  // SRC_UTIL_RESULT_H_
