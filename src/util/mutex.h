// Annotated concurrency primitives: the only lock types the repo uses.
//
// Mutex/MutexLock wrap std::mutex and carry the Clang thread-safety
// annotations from util/thread_annotations.h, so a Clang build with
// -DINFOSHIELD_THREAD_SAFETY=ON proves at compile time that every
// GUARDED_BY field is touched only under its mutex. Raw std::mutex /
// std::lock_guard / std::thread / std::condition_variable are banned
// outside src/util/ by tools/lint.py (rule raw-concurrency); new shared
// state must be expressed through these wrappers:
//
//   Mutex mu_;
//   size_t finished_ GUARDED_BY(mu_) = 0;
//
//   void Finish() EXCLUDES(mu_) {
//     MutexLock lock(&mu_);
//     ++finished_;
//   }
//
// Work split across threads goes through ThreadPool::ParallelFor
// (util/thread_pool.h); workers that write disjoint per-index slots need
// no lock at all.

#ifndef INFOSHIELD_UTIL_MUTEX_H_
#define INFOSHIELD_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace infoshield {

// A standard exclusive mutex with compile-time lock contracts. Not
// reentrant. Constexpr-constructible, so file-scope Mutex instances are
// safe to use from static initializers.
class CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock: acquires in the constructor, releases in the destructor.
// The annotation ties the scope to the capability, so Clang reports a
// GUARDED_BY access that outlives the lock.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_MUTEX_H_
