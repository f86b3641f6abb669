#include "src/util/result.h"

namespace presto {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "kNotFound";
    case StatusCode::kInvalidArgument:
      return "kInvalidArgument";
    case StatusCode::kResourceExhausted:
      return "kResourceExhausted";
    case StatusCode::kUnavailable:
      return "kUnavailable";
    case StatusCode::kDeadlineExceeded:
      return "kDeadlineExceeded";
    case StatusCode::kFailedPrecondition:
      return "kFailedPrecondition";
    case StatusCode::kOutOfRange:
      return "kOutOfRange";
    case StatusCode::kDataLoss:
      return "kDataLoss";
    case StatusCode::kInternal:
      return "kInternal";
  }
  return "kUnknown";
}

Status::Status(StatusCode code, std::string message) : code_(code) {
  if (code != StatusCode::kOk && !message.empty()) {
    message_ = std::make_unique<const std::string>(std::move(message));
  }
}

std::unique_ptr<const std::string> Status::Clone(const std::string& message) {
  return std::make_unique<const std::string>(message);
}

const std::string& Status::EmptyMessage() {
  static const std::string* const empty = new std::string();
  return *empty;
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeName(code_);
  if (message_) {
    out += ": ";
    out += *message_;
  }
  return out;
}

Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

}  // namespace presto
