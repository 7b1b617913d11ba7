// Status: lightweight error propagation without exceptions, modeled on
// arrow::Status / rocksdb::Status. Functions that can fail for reasons other
// than programmer error return Status (or Result<T>, see result.h).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/macros.h"

namespace sss {

/// \brief Machine-readable category of a Status.
enum class StatusCode : char {
  kOk = 0,
  kInvalid = 1,        // invalid argument / malformed input
  kIOError = 2,        // filesystem-level failure
  kKeyError = 3,       // lookup of a missing key / id
  kOutOfMemory = 4,    // allocation failure or capacity exceeded
  kNotImplemented = 5, // feature intentionally absent
  kCancelled = 6,      // cooperative cancellation
  kUnknownError = 7,
  kCorruption = 8,     // a wire frame failed integrity checks
  kUnavailable = 9,    // service overloaded or shutting down; retryable
  kDeadlineExceeded = 10,  // transport-level time budget expired mid-exchange
  kFailedPrecondition = 11,  // operation invalid in the caller's current state
};

/// \brief Returns a human-readable name for a StatusCode ("Invalid", ...).
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: OK, or an error code plus message.
///
/// The OK state is represented by a null pointer so that the success path
/// costs a single pointer test and Status fits in one register.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  Status(StatusCode code, std::string msg)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(msg)})) {}

  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&& other) noexcept {
    // Self-move must leave the status unchanged, not in the unspecified
    // state unique_ptr's defaulted move assignment would produce.
    if (this != &other) state_ = std::move(other.state_);
    return *this;
  }

  /// \brief Returns an OK status.
  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalid, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status UnknownError(std::string msg) {
    return Status(StatusCode::kUnknownError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  /// \brief True iff the operation succeeded.
  bool ok() const noexcept { return state_ == nullptr; }

  StatusCode code() const noexcept {
    return state_ ? state_->code : StatusCode::kOk;
  }

  bool IsInvalid() const noexcept { return code() == StatusCode::kInvalid; }
  bool IsIOError() const noexcept { return code() == StatusCode::kIOError; }
  bool IsKeyError() const noexcept { return code() == StatusCode::kKeyError; }
  bool IsOutOfMemory() const noexcept {
    return code() == StatusCode::kOutOfMemory;
  }
  bool IsNotImplemented() const noexcept {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsCancelled() const noexcept { return code() == StatusCode::kCancelled; }
  bool IsCorruption() const noexcept {
    return code() == StatusCode::kCorruption;
  }
  bool IsUnavailable() const noexcept {
    return code() == StatusCode::kUnavailable;
  }
  bool IsDeadlineExceeded() const noexcept {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsFailedPrecondition() const noexcept {
    return code() == StatusCode::kFailedPrecondition;
  }

  /// \brief The error message; empty for OK.
  const std::string& message() const noexcept {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  /// \brief "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// \brief Aborts the process if not OK. For use in tests and examples where
  /// failure is unrecoverable.
  void Abort() const;
  void AbortIfNotOK() const {
    if (SSS_PREDICT_FALSE(!ok())) Abort();
  }

  bool operator==(const Status& other) const noexcept {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::unique_ptr<State> state_;
};

}  // namespace sss
