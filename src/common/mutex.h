#ifndef PSPC_SRC_COMMON_MUTEX_H_
#define PSPC_SRC_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/logging.h"
#include "src/common/thread_annotations.h"

/// The project's annotated, ranked locking primitives.
///
/// Every mutex in the concurrent subsystems goes through `spc::Mutex`
/// (never raw `std::mutex` — `spc_lint` enforces this) so that Clang's
/// thread-safety analysis can see acquisitions and releases: members
/// are declared `GUARDED_BY(mu_)`, locked helpers `REQUIRES(mu_)`, and
/// `clang++ -Wthread-safety` then proves — at compile time, on every
/// path — that no guarded field is ever touched without its lock.
///
/// Lock order is a rank. Every `spc::Mutex` is constructed with a
/// `LockRank` (there is no default constructor, so an unranked mutex
/// does not compile), and `Lock()` checks that the calling thread
/// holds no mutex of equal or higher rank. Locks are therefore taken
/// outermost rank first, and re-locking a held mutex dies instead of
/// deadlocking. The check is unconditional, not debug-only: the tests
/// and benchmarks run Release builds, so a debug-only check would
/// never run where the locks are exercised. It costs a thread-local
/// compare and bit set per lock and a bit clear per unlock.
///
/// Waits are written as explicit condition loops
/// (`while (!pred) cv_.Wait(mu_);`) rather than predicate lambdas:
/// the analysis checks the loop body directly, whereas a lambda handed
/// to `std::condition_variable::wait` is opaque to it.
namespace pspc {
namespace spc {

/// Lock ranks, outermost first: a thread may take a mutex only while
/// every mutex it holds ranks lower. One rank per mutex member in src/.
enum class LockRank : uint8_t {
  /// Locks owned outside src/ (benches, the CLI, tests). Callers take
  /// them before calling into the library.
  kClient,
  /// ServingEngine::writer_mu_: the outermost library lock; everything
  /// the apply/publish path touches nests under it.
  kServingWriter,
  kServingDrain,  // ServingEngine::drain_mu_
  /// RequestQueue::mu_: released before a request is processed.
  kRequestQueue,
  kWatchdogThread,  // HealthWatchdog::thread_mu_ (thread lifecycle)
  kWatchdog,        // HealthWatchdog::mu_ (report and rule state)
  // Leaf locks: short critical sections that take nothing inside.
  kResultCacheShard,  // ResultCache::Shard::mu
  kSnapshotManager,   // SnapshotManager::mu_
  kTraceCollector,    // obs::TraceCollector::mu_
  kUpdateTraceLog,    // obs::UpdateTraceLog::mu_
  kMetricsRegistry,   // obs::MetricsRegistry::mu_
};

namespace internal {
/// Bit r is set while this thread holds the mutex of rank r.
inline thread_local uint32_t held_lock_ranks = 0;
}  // namespace internal

class CondVar;

/// Annotated, ranked exclusive mutex. Declare `mutable` when const
/// methods lock it (the std::mutex convention this wraps).
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    // A held bit at or above ours makes the mask at least our bit.
    PSPC_CHECK_MSG(internal::held_lock_ranks < Bit(),
                   "lock order: rank " << static_cast<int>(rank_)
                                       << " taken while holding rank mask "
                                       << internal::held_lock_ranks);
    mu_.lock();
    internal::held_lock_ranks |= Bit();
  }
  void Unlock() RELEASE() {
    internal::held_lock_ranks &= ~Bit();
    mu_.unlock();
  }

 private:
  friend class CondVar;
  uint32_t Bit() const { return uint32_t{1} << static_cast<int>(rank_); }

  const LockRank rank_;
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

  /// Re-acquires after an early Unlock(); the rank check applies again.
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
/// The mutex's rank bit stays set across a wait, which returns only
/// once the thread holds the mutex again.
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
