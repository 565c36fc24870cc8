#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace infoshield {
namespace {

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ThreadPool::ResolveNumThreads(0), 1u);
}

#if defined(__linux__)
// 0 counts the CPUs the caller may run on, not every CPU online: under a
// one-CPU mask a default ParallelFor has one worker, the calling thread.
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
  std::vector<std::thread::id> ran_on(5);
  ThreadPool::ParallelFor(0, ran_on.size(), [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(resolved, 1u);
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

// Workers start on spread-out CPUs, but each must end up with the
// calling thread's whole CPU mask, never pinned to the one it began on.
TEST(ThreadPoolTest, WorkersKeepTheCreatorsCpuMask) {
  cpu_set_t creator{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(creator), &creator), 0);
  // More workers than CPUs, so the round-robin placement wraps.
  const size_t workers = 2 * static_cast<size_t>(CPU_COUNT(&creator)) + 1;
  std::vector<cpu_set_t> masks(workers);
  std::vector<char> read(workers, 0);
  std::atomic<size_t> started{0};
  ThreadPool::ParallelFor(workers, workers, [&](size_t t) {
    // Each index holds its worker until every index has started, so
    // every worker reports its own mask.
    started.fetch_add(1);
    while (started.load() < workers) std::this_thread::yield();
    read[t] = sched_getaffinity(0, sizeof(masks[t]), &masks[t]) == 0;
  });
  for (size_t t = 0; t < workers; ++t) {
    ASSERT_TRUE(read[t]) << "index " << t;
    EXPECT_TRUE(CPU_EQUAL(&masks[t], &creator)) << "index " << t;
  }
}
#endif

// Every index runs once, on at most min(workers, count) threads, and on
// the calling thread alone when that is one (count < workers included).
TEST(ParallelForTest, CoversEveryIndexOnce) {
  for (size_t threads : {0, 1, 2, 8}) {
    for (size_t n : {0, 1, 3, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::thread::id> ran_on(n);
      ThreadPool::ParallelFor(threads, n, [&](size_t i) {
        hits[i].fetch_add(1);
        ran_on[i] = std::this_thread::get_id();
      });
      const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
      const size_t workers =
          std::min(ThreadPool::ResolveNumThreads(threads), n);
      EXPECT_LE(distinct.size(), workers)
          << threads << " threads, count " << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << threads << " threads, count " << n << ", index " << i;
        if (workers == 1) {
          EXPECT_EQ(ran_on[i], std::this_thread::get_id());
        }
      }
    }
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

// The worker counts ParallelForPublishing is checked at: 1, 2, 4, 8, and
// more than twice the CPUs the caller may use, so workers outnumber
// CPUs and wait on one another.
std::vector<size_t> PublishingWorkerCounts() {
  return {1, 2, 4, 8, 2 * ThreadPool::ResolveNumThreads(0) + 1};
}

// Call i publishes i % 5 items (none when i is a multiple of 5) into its
// own range of ids, filling each item's payload before publishing it.
// Every published item must run exactly once and read its publisher's
// payload, and no other id may run.
TEST(ParallelForPublishingTest, EveryPublishedItemRunsOnceAfterItsWrites) {
  const size_t calls = 60;
  const size_t per_call = 4;
  for (size_t threads : PublishingWorkerCounts()) {
    for (int round = 0; round < 5; ++round) {
      std::vector<uint64_t> payload(calls * per_call, 0);
      std::vector<uint64_t> read(calls * per_call, 0);
      std::vector<std::atomic<int>> runs(calls * per_call);
      size_t published = 0;
      for (size_t i = 0; i < calls; ++i) published += i % 5;
      ThreadPool::ParallelForPublishing(
          threads, calls, published,
          [&](size_t i, const ThreadPool::Publish& publish) {
            for (size_t k = 0; k < i % 5; ++k) {
              const size_t item = i * per_call + k;
              payload[item] = 1000 * i + k + 1;
              publish(item);
            }
          },
          [&](size_t item) {
            runs[item].fetch_add(1);
            read[item] = payload[item];
          });
      for (size_t item = 0; item < calls * per_call; ++item) {
        const size_t i = item / per_call;
        const size_t k = item % per_call;
        const bool was_published = k < i % 5;
        SCOPED_TRACE(testing::Message() << threads << " workers, round "
                                        << round << ", item " << item);
        EXPECT_EQ(runs[item].load(), was_published ? 1 : 0);
        EXPECT_EQ(read[item], was_published ? 1000 * i + k + 1 : 0u);
      }
    }
  }
}

// With no calls nothing runs, whatever the bound; calls that publish
// nothing each run once and no item runs. Either way every worker that
// waits for an item must be released.
TEST(ParallelForPublishingTest, NoCallsAndCallsThatPublishNothing) {
  for (size_t threads : PublishingWorkerCounts()) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    ThreadPool::ParallelForPublishing(
        threads, 0, 5,
        [](size_t, const ThreadPool::Publish&) { FAIL(); },
        [](size_t) { FAIL(); });
    for (size_t bound : {0, 7}) {
      std::vector<std::atomic<int>> calls(12);
      ThreadPool::ParallelForPublishing(
          threads, calls.size(), bound,
          [&](size_t i, const ThreadPool::Publish&) { calls[i].fetch_add(1); },
          [](size_t) { FAIL(); });
      for (size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].load(), 1) << "bound " << bound << ", call " << i;
      }
    }
  }
}

// More workers than calls and items: one call publishing two items, and
// two calls publishing one between them, under a looser bound.
TEST(ParallelForPublishingTest, MoreWorkersThanCallsAndItems) {
  for (size_t threads : PublishingWorkerCounts()) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    std::vector<std::atomic<int>> runs(3);
    ThreadPool::ParallelForPublishing(
        threads, 1, 2,
        [&](size_t, const ThreadPool::Publish& publish) {
          publish(0);
          publish(2);
        },
        [&](size_t item) { runs[item].fetch_add(1); });
    EXPECT_EQ(runs[0].load(), 1);
    EXPECT_EQ(runs[1].load(), 0);
    EXPECT_EQ(runs[2].load(), 1);
    std::vector<std::atomic<int>> second(2);
    ThreadPool::ParallelForPublishing(
        threads, 2, 3,
        [&](size_t i, const ThreadPool::Publish& publish) {
          if (i == 1) publish(1);
        },
        [&](size_t item) { second[item].fetch_add(1); });
    EXPECT_EQ(second[0].load(), 0);
    EXPECT_EQ(second[1].load(), 1);
  }
}

// One worker is the calling thread: every call in index order, then every
// item in publish order.
TEST(ParallelForPublishingTest, OneWorkerRunsCallsThenItemsInPublishOrder) {
  std::vector<std::string> order;
  std::vector<std::thread::id> ran_on;
  ThreadPool::ParallelForPublishing(
      1, 3, 6,
      [&](size_t i, const ThreadPool::Publish& publish) {
        order.push_back("call " + std::to_string(i));
        ran_on.push_back(std::this_thread::get_id());
        publish(10 * i + 2);
        if (i != 1) publish(10 * i + 1);
      },
      [&](size_t item) {
        order.push_back("item " + std::to_string(item));
        ran_on.push_back(std::this_thread::get_id());
      });
  EXPECT_EQ(order, (std::vector<std::string>{
                       "call 0", "call 1", "call 2", "item 2", "item 1",
                       "item 12", "item 22", "item 21"}));
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
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
