// Status and StatusOr: error handling primitives used across the UDR library.
//
// The library does not throw exceptions across module boundaries. Fallible
// operations return Status (or StatusOr<T> when they produce a value), in the
// style of Arrow / RocksDB / absl.

#ifndef UDR_COMMON_STATUS_H_
#define UDR_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace udr {

/// Canonical error space for the UDR library.
enum class StatusCode : int {
  kOk = 0,
  kNotFound = 1,          ///< Entry/subscriber/record does not exist.
  kAlreadyExists = 2,     ///< Insert of a key that is already present.
  kInvalidArgument = 3,   ///< Malformed DN, filter, or parameter.
  kUnavailable = 4,       ///< Target unreachable (partition, crash, not started).
  kAborted = 5,           ///< Transaction aborted (conflict, explicit rollback).
  kDeadlineExceeded = 6,  ///< Operation exceeded its latency budget.
  kFailedPrecondition = 7,///< System state forbids the operation (e.g. read-only
                          ///< slave receives a write).
  kResourceExhausted = 8, ///< RAM budget or capacity limit hit.
  kCorruption = 9,        ///< Checkpoint/log integrity violation.
  kInternal = 10,         ///< Invariant violation inside the library.
  kUnimplemented = 11,    ///< Feature not provided by this realization.
};

/// Human-readable name of a StatusCode ("NotFound", "Unavailable", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error result. Cheap to copy in the Ok case.
class Status {
 public:
  /// Constructs an Ok status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "not found") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m = "already exists") {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m = "invalid argument") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Unavailable(std::string m = "unavailable") {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Aborted(std::string m = "aborted") {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status DeadlineExceeded(std::string m = "deadline exceeded") {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status FailedPrecondition(std::string m = "failed precondition") {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status ResourceExhausted(std::string m = "resource exhausted") {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Corruption(std::string m = "corruption") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status Internal(std::string m = "internal error") {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Unimplemented(std::string m = "unimplemented") {
    return Status(StatusCode::kUnimplemented, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsDeadlineExceeded() const { return code_ == StatusCode::kDeadlineExceeded; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value or an error. `ok()` must be checked before dereferencing.
template <typename T>
class StatusOr {
 public:
  /// Implicit from error status (must not be Ok).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from Ok status without value");
  }
  /// Implicit from value.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-Ok status from an expression to the caller.
#define UDR_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::udr::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Assigns the value of a StatusOr expression or returns its error.
#define UDR_ASSIGN_OR_RETURN(lhs, expr)          \
  auto UDR_CONCAT_(_so_, __LINE__) = (expr);     \
  if (!UDR_CONCAT_(_so_, __LINE__).ok())         \
    return UDR_CONCAT_(_so_, __LINE__).status(); \
  lhs = std::move(UDR_CONCAT_(_so_, __LINE__)).value()

#define UDR_CONCAT_INNER_(a, b) a##b
#define UDR_CONCAT_(a, b) UDR_CONCAT_INNER_(a, b)

}  // namespace udr

#endif  // UDR_COMMON_STATUS_H_
