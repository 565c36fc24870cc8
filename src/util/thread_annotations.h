// Clang thread-safety-analysis annotations (no-ops elsewhere).
//
// These macros attach compile-time concurrency contracts to types,
// fields, and functions; building with a Clang compiler and
// -DINFOSHIELD_THREAD_SAFETY=ON (which adds -Wthread-safety
// -Wthread-safety-beta, errors under INFOSHIELD_WERROR) turns contract
// violations — touching a GUARDED_BY field without its mutex, calling a
// REQUIRES function unlocked, leaking a lock — into compiler
// diagnostics. GCC and other compilers see empty macros, so annotated
// code stays portable.
//
// The vocabulary (mirrors the Clang documentation):
//   CAPABILITY("mutex")       class is a lockable capability (Mutex)
//   SCOPED_CAPABILITY         RAII type that acquires/releases (MutexLock)
//   GUARDED_BY(mu)            field may only be touched holding mu
//   PT_GUARDED_BY(mu)         pointee may only be touched holding mu
//   REQUIRES(mu)              caller must hold mu
//   EXCLUDES(mu)              caller must NOT hold mu
//   ACQUIRE(mu) / RELEASE(mu) function locks / unlocks mu
//   TRY_ACQUIRE(ok, mu)       returns `ok` when mu was acquired
//   ASSERT_CAPABILITY(mu)     runtime assertion that mu is held
//   RETURN_CAPABILITY(mu)     function returns a reference to mu
//   NO_THREAD_SAFETY_ANALYSIS opt a function out (use sparingly, with a
//                             comment saying why the analysis cannot see
//                             the invariant)
//
// Only src/util/mutex.h should define new capabilities; everything else
// consumes Mutex/MutexLock and annotates its guarded state
// (see DESIGN.md §9, "Concurrency contract").

#ifndef INFOSHIELD_UTIL_THREAD_ANNOTATIONS_H_
#define INFOSHIELD_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define INFOSHIELD_THREAD_ATTRIBUTE(x) __attribute__((x))
#else
#define INFOSHIELD_THREAD_ATTRIBUTE(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) INFOSHIELD_THREAD_ATTRIBUTE(capability(x))

#define SCOPED_CAPABILITY INFOSHIELD_THREAD_ATTRIBUTE(scoped_lockable)

#define GUARDED_BY(x) INFOSHIELD_THREAD_ATTRIBUTE(guarded_by(x))

#define PT_GUARDED_BY(x) INFOSHIELD_THREAD_ATTRIBUTE(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  INFOSHIELD_THREAD_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) INFOSHIELD_THREAD_ATTRIBUTE(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  INFOSHIELD_THREAD_ATTRIBUTE(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  INFOSHIELD_THREAD_ATTRIBUTE(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) INFOSHIELD_THREAD_ATTRIBUTE(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  INFOSHIELD_THREAD_ATTRIBUTE(no_thread_safety_analysis)

#endif  // INFOSHIELD_UTIL_THREAD_ANNOTATIONS_H_
