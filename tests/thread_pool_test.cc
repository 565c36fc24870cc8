#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace infoshield {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, MultipleWaitRounds) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

#if defined(__linux__)
// 0 counts the CPUs the caller may run on, not every CPU online: under a
// one-CPU mask a default pool has one worker.
TEST(ThreadPoolTest, ZeroCountsOnlyTheCpusTheCallerMayUse) {
  cpu_set_t allowed{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0),
            static_cast<size_t>(CPU_COUNT(&allowed)));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one{};
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t resolved = ThreadPool::ResolveNumThreads(0);
  const size_t workers = ThreadPool(0).num_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(resolved, 1u);
  EXPECT_EQ(workers, 1u);
}
#endif

// Many external threads hammering Submit concurrently: exercises the
// task-queue lock from outside the pool (TSan-sensitive; see
// tools/check.sh tsan leg).
TEST(ThreadPoolTest, ConcurrentSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

// Tasks that submit follow-up tasks while Wait() is already blocked:
// Wait() must not return until the transitively-spawned work drains.
TEST(ThreadPoolTest, SubmitDuringWaitIsObservedByWait) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kRoots = 16;
  constexpr int kChildrenPerRoot = 8;
  for (int i = 0; i < kRoots; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      for (int c = 0; c < kChildrenPerRoot; ++c) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), kRoots * (1 + kChildrenPerRoot));
}

// External submitter racing a Wait() caller: Wait() must return with the
// tasks it can see drained, and the destructor must still run everything
// that was ever accepted.
TEST(ThreadPoolTest, WaitRacingSubmitNeverLosesTasks) {
  std::atomic<int> counter{0};
  constexpr int kTasks = 400;
  {
    ThreadPool pool(4);
    std::thread submitter([&pool, &counter] {
      for (int i = 0; i < kTasks; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
    for (int w = 0; w < 10; ++w) pool.Wait();
    submitter.join();
    pool.Wait();
    EXPECT_EQ(counter.load(), kTasks);
  }
  EXPECT_EQ(counter.load(), kTasks);
}

#if defined(__linux__)
// Workers start on spread-out CPUs, but each must end up with the
// creating thread's whole CPU mask, never pinned to the one it began on.
TEST(ThreadPoolTest, WorkersKeepTheCreatorsCpuMask) {
  cpu_set_t creator{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(creator), &creator), 0);
  // More workers than CPUs, so the round-robin placement wraps.
  const size_t workers = 2 * static_cast<size_t>(CPU_COUNT(&creator)) + 1;
  std::vector<cpu_set_t> masks(workers);
  std::vector<char> read(workers, 0);
  std::atomic<size_t> started{0};
  {
    ThreadPool pool(workers);
    for (size_t t = 0; t < workers; ++t) {
      pool.Submit([&, t] {
        // Each task holds its worker until every task has started, so
        // every worker reports its own mask.
        started.fetch_add(1);
        while (started.load() < workers) std::this_thread::yield();
        read[t] = sched_getaffinity(0, sizeof(masks[t]), &masks[t]) == 0;
      });
    }
    pool.Wait();
  }
  for (size_t t = 0; t < workers; ++t) {
    ASSERT_TRUE(read[t]) << "task " << t;
    EXPECT_TRUE(CPU_EQUAL(&masks[t], &creator)) << "task " << t;
  }
}
#endif

TEST(ParallelForTest, CoversEveryIndexOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool::ParallelFor(4, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SequentialFallback) {
  std::vector<int> order;
  ThreadPool::ParallelFor(1, 5, [&](size_t i) {
    order.push_back(static_cast<int>(i));  // safe: single-threaded path
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ThreadPool::ParallelFor(4, 0, [](size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelForTest, ResultsMatchSequential) {
  const size_t n = 200;
  std::vector<double> parallel(n);
  std::vector<double> sequential(n);
  auto work = [](size_t i) {
    double x = static_cast<double>(i);
    for (int k = 0; k < 50; ++k) x = x * 1.0000001 + 0.5;
    return x;
  };
  ThreadPool::ParallelFor(8, n, [&](size_t i) { parallel[i] = work(i); });
  for (size_t i = 0; i < n; ++i) sequential[i] = work(i);
  EXPECT_EQ(parallel, sequential);
}

TEST(BalancedChunksTest, ContiguousNonEmptyChunksWithinTheLimits) {
  // Chunks tile [0, count) in order, none empty, at most 4 per worker
  // (one for one worker) and at most total / min_weight of them.
  auto chunks_of = [](size_t threads, const std::vector<size_t>& weights,
                      size_t min_weight) {
    return ThreadPool::BalancedChunks(
        threads, weights.size(), min_weight,
        [&](size_t i) { return weights[i]; });
  };
  EXPECT_TRUE(chunks_of(4, {}, 10).empty());
  EXPECT_EQ(chunks_of(4, {0, 0, 0}, 10), (std::vector<size_t>{0, 3}));
  EXPECT_EQ(chunks_of(1, std::vector<size_t>(100, 10), 10),
            (std::vector<size_t>{0, 100}));
  // Light input: one chunk, whatever the thread count.
  EXPECT_EQ(chunks_of(8, std::vector<size_t>(100, 1), 1000),
            (std::vector<size_t>{0, 100}));
  // Equal weights split evenly.
  EXPECT_EQ(chunks_of(2, std::vector<size_t>(80, 10), 10),
            (std::vector<size_t>{0, 10, 20, 30, 40, 50, 60, 70, 80}));
  // One heavy item: no empty chunk around it.
  std::vector<size_t> skewed(20, 1);
  skewed[7] = 1000;
  const std::vector<size_t> bounds = chunks_of(4, skewed, 1);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_LE(bounds.size() - 1, 16u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), skewed.size());
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    EXPECT_LT(bounds[c], bounds[c + 1]);
  }
}

}  // namespace
}  // namespace infoshield
