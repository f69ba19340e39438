#ifndef PSPC_SRC_COMMON_MUTEX_H_
#define PSPC_SRC_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

/// The project's annotated locking primitives.
///
/// Every mutex in the concurrent subsystems goes through `spc::Mutex`
/// (never raw `std::mutex` — `spc_lint` enforces this) so that Clang's
/// thread-safety analysis can see acquisitions and releases: members
/// are declared `GUARDED_BY(mu_)`, locked helpers `REQUIRES(mu_)`, and
/// `clang++ -Wthread-safety` then proves — at compile time, on every
/// path — that no guarded field is ever touched without its lock.
///
/// Waits are written as explicit condition loops
/// (`while (!pred) cv_.Wait(mu_);`) rather than predicate lambdas:
/// the analysis checks the loop body directly, whereas a lambda handed
/// to `std::condition_variable::wait` is opaque to it.
namespace pspc {
namespace spc {

class CondVar;

/// Annotated exclusive mutex. Declare `mutable` when const methods
/// lock it (the std::mutex convention this wraps).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock; the annotated stand-in for std::lock_guard /
/// std::unique_lock. `Unlock()`/`Lock()` support the
/// release-early-to-notify and drop-across-a-callback patterns; the
/// destructor releases only if currently held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. to notify a condition variable without the
  /// woken thread immediately blocking on the lock).
  void Unlock() RELEASE() {
    held_ = false;
    mu_.Unlock();
  }

  /// Re-acquires after an early Unlock().
  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable over `spc::Mutex`. Wait/WaitFor take the Mutex
/// itself (caller must hold it — enforced by REQUIRES), so the
/// analysis knows the lock is held around the wait and re-held after.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, re-acquires. As with any
  /// condition wait, call in a loop re-checking the predicate.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Wait with a timeout; returns std::cv_status::timeout iff the
  /// duration elapsed without a notification.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace spc
}  // namespace pspc

#endif  // PSPC_SRC_COMMON_MUTEX_H_
