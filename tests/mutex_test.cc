#include "util/mutex.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_annotations.h"

namespace infoshield {
namespace {

TEST(MutexTest, LockUnlock) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  SUCCEED();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  EXPECT_TRUE(mu.TryLock());
  // Self-try while held must fail from another thread (trying from this
  // thread would be UB on a non-recursive mutex).
  bool acquired = true;
  std::thread other([&] {
    acquired = mu.TryLock();
    if (acquired) mu.Unlock();
  });
  other.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
}

TEST(MutexTest, MutexLockGuardsCriticalSection) {
  struct Counter {
    Mutex mu;
    int value GUARDED_BY(mu) = 0;
  };
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&counter.mu);
        ++counter.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&counter.mu);
  EXPECT_EQ(counter.value, kThreads * kIncrements);
}

}  // namespace
}  // namespace infoshield
