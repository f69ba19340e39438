#include "src/common/status.h"

namespace pspc {
namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kOutOfRange:
      return "OutOfRange";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = CodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace pspc
