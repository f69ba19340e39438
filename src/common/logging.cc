#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace pspc {
namespace internal {

void CheckFailed(const char* file, int line, const char* condition,
                 const std::string& message) {
  std::fprintf(stderr, "[CHECK FAILED %s:%d] %s %s\n", file, line, condition,
               message.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace pspc
