#ifndef PSPC_SRC_COMMON_LOGGING_H_
#define PSPC_SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

/// Invariant checking. `PSPC_CHECK` guards internal invariants
/// (programmer errors) and aborts with a message on failure;
/// recoverable conditions use Status instead.
namespace pspc {
namespace internal {

[[noreturn]] void CheckFailed(const char* file, int line,
                              const char* condition,
                              const std::string& message);

}  // namespace internal
}  // namespace pspc

#define PSPC_CHECK(cond)                                                   \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::pspc::internal::CheckFailed(__FILE__, __LINE__, #cond, "");        \
    }                                                                      \
  } while (0)

#define PSPC_CHECK_MSG(cond, msg_expr)                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream _oss;                                             \
      _oss << msg_expr;                                                    \
      ::pspc::internal::CheckFailed(__FILE__, __LINE__, #cond,             \
                                    _oss.str());                           \
    }                                                                      \
  } while (0)

#endif  // PSPC_SRC_COMMON_LOGGING_H_
