#ifndef PSPC_SRC_COMMON_STATUS_H_
#define PSPC_SRC_COMMON_STATUS_H_

#include <string>
#include <utility>

/// RocksDB-style error handling: the library is exception-free; fallible
/// operations return `Status` (or `Result<T>` for value-producing ones).
namespace pspc {

/// Outcome of a fallible operation. Cheap to copy for the OK case.
/// `[[nodiscard]]` on the class makes every by-value `Status` return
/// must-use: ignoring one is a compile warning (error in CI).
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kOutOfRange,
  };

  /// Default-constructed Status is OK.
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>"; for logs and test failure output.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// A value or an error. Minimal StatusOr analogue: exactly one of
/// `status().ok()` / `has_value()` holds; accessing `value()` on an
/// error aborts (programmer error, checked via PSPC_CHECK).
template <typename T>
class [[nodiscard]] Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace pspc

/// Propagates a non-OK Status from the current function.
#define PSPC_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::pspc::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                    \
  } while (0)

#endif  // PSPC_SRC_COMMON_STATUS_H_
