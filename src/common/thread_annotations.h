#ifndef PSPC_SRC_COMMON_THREAD_ANNOTATIONS_H_
#define PSPC_SRC_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros.
///
/// These make the locking contracts of the concurrent subsystems
/// (src/serve/, src/obs/, src/dynamic/) part of the type system:
/// `GUARDED_BY(mu)` on a member means every access must hold `mu`,
/// `REQUIRES(mu)` on a function means every caller must hold `mu`,
/// and the `spc::Mutex` / `spc::MutexLock` wrappers (common/mutex.h)
/// carry the ACQUIRE/RELEASE annotations the analysis tracks. Under
/// `clang++ -Wthread-safety` a missed lock is a compile error on every
/// build and every path — the static complement of the TSan CI lane,
/// which can only sample the interleavings it happens to run. Under
/// compilers without the attribute (g++) everything expands to
/// nothing. There is deliberately no NO_THREAD_SAFETY_ANALYSIS escape:
/// the macro is not defined, so opting a function out of the analysis
/// does not compile.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
/// (the macros below are the subset of that page's set the tree uses,
/// in the shape Abseil ships in absl/base/thread_annotations.h).

#if defined(__clang__) && (!defined(SWIG))
#define PSPC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PSPC_THREAD_ANNOTATION(x)  // no-op
#endif

/// Declares that the data member it is attached to is protected by the
/// given capability: reads require the capability shared or exclusive,
/// writes require it exclusive.
#define GUARDED_BY(x) PSPC_THREAD_ANNOTATION(guarded_by(x))

/// The calling thread must hold the given capability(ies) exclusively
/// to call this function; the function neither acquires nor releases.
#define REQUIRES(...) \
  PSPC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it past return.
#define ACQUIRE(...) \
  PSPC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases a capability the caller held.
#define RELEASE(...) \
  PSPC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The calling thread must NOT hold the capability (deadlock guard for
/// functions that acquire it themselves).
#define EXCLUDES(...) PSPC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Marks a class as a capability (something that can be held). The
/// string names the capability kind in diagnostics ("mutex").
#define CAPABILITY(x) PSPC_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY PSPC_THREAD_ANNOTATION(scoped_lockable)

#endif  // PSPC_SRC_COMMON_THREAD_ANNOTATIONS_H_
