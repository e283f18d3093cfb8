#ifndef TELEPORT_COMMON_STATUS_H_
#define TELEPORT_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace teleport {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow status idiom: library code never throws; fallible
/// operations return a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfMemory,
  kTimedOut,
  kCancelled,
  kUnavailable,      ///< e.g. memory pool unreachable (heartbeat failure)
  kFault,            ///< pushed-down function raised a fault (segfault analog)
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kFenced,           ///< RPC admitted under a stale pool epoch (pool recovered)
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// The OK status carries no allocation. Error statuses carry a code and a
/// message. Statuses are copyable and movable.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Fault(std::string msg) {
    return Status(StatusCode::kFault, std::move(msg));
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
  static Status Fenced(std::string msg) {
    return Status(StatusCode::kFenced, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsFault() const { return code_ == StatusCode::kFault; }
  bool IsFenced() const { return code_ == StatusCode::kFenced; }

  /// Formats as "Code: message" (just "OK" for success).
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace teleport

#endif  // TELEPORT_COMMON_STATUS_H_
