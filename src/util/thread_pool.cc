#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace infoshield {

namespace {

// Moves the calling thread onto the `index`-th CPU of its allowed set
// (round-robin), then hands it the whole set back, so the kernel places
// it freely from there on. Best effort: on any failure the thread stays
// where the kernel put it.
//
// Without this, a 4-vCPU KVM guest (Linux 6.18) that had idled for a few
// seconds ran all four newly created workers of every fork-join on a
// single vCPU for about a second in roughly half of fresh processes,
// before the load balancer spread them; a fork-join stage then took ~3x
// as long. Starting worker i on the i-th allowed CPU removed that in
// every trial.
void SpreadOntoCpu(size_t index) {
#if defined(__linux__)
  cpu_set_t allowed{};
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = static_cast<int>(index % static_cast<size_t>(count));
  int cpu = 0;
  for (; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) break;
  }
  cpu_set_t one{};
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  // Restoring the mask the thread was created with cannot fail unless
  // every CPU in it went offline meanwhile; the thread then stays on
  // `cpu`, which is still one it may use.
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);
#else
  (void)index;
#endif
}

// ParallelForPublishing's board positions: empty until a publisher fills
// one, or until the last fn call returns without having filled it.
constexpr uint32_t kEmpty = 0;
constexpr uint32_t kPublished = 1;
constexpr uint32_t kClosed = 2;

}  // namespace

size_t ThreadPool::ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
#if defined(__linux__)
  // hardware_concurrency() counts the machine's online CPUs, however few
  // of them a cpuset or taskset lets this process use; workers beyond
  // those only take turns on them, and a fork-join stage then waits for
  // whichever was descheduled last.
  cpu_set_t allowed{};
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&allowed)));
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::ParallelFor(size_t num_threads, size_t count,
                             const std::function<void(size_t)>& fn) {
  const size_t workers = std::min(ResolveNumThreads(num_threads), count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // A thread that cannot start throws std::system_error, and the
  // unjoined workers then end the program, as a failed allocation does
  // in this exception-free library.
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      SpreadOntoCpu(w);
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void ThreadPool::ParallelForPublishing(
    size_t num_threads, size_t count, size_t max_items,
    const std::function<void(size_t, const Publish&)>& fn,
    const std::function<void(size_t)>& consume) {
  if (count == 0) return;  // nothing can publish
  // The published items, in publish order.
  std::vector<size_t> items(max_items);
  const size_t workers =
      std::min(ResolveNumThreads(num_threads), count + max_items);
  if (workers <= 1) {
    size_t published = 0;
    const Publish publish = [&](size_t item) {
      CHECK_LT(published, max_items);
      items[published++] = item;
    };
    for (size_t i = 0; i < count; ++i) fn(i, publish);
    for (size_t t = 0; t < published; ++t) consume(items[t]);
    return;
  }
  // Memory orders (DESIGN.md §9). The counters only hand out distinct
  // indices, so they are relaxed. A publisher fills its position of
  // `items` and then stores kPublished with release; the worker that
  // took the position reads it with acquire, so it sees the item and
  // everything its publisher wrote before. The fn calls count down with
  // acq_rel, so the last one to return sees every reservation and reads
  // the final published count.
  std::vector<std::atomic<uint32_t>> state(max_items + workers);
  std::atomic<size_t> reserved{0};
  std::atomic<size_t> next_call{0};
  std::atomic<size_t> calls_left{count};
  std::atomic<size_t> next_item{0};
  const Publish publish = [&](size_t item) {
    const size_t t = reserved.fetch_add(1, std::memory_order_relaxed);
    CHECK_LT(t, max_items);
    items[t] = item;
    state[t].store(kPublished, std::memory_order_release);
    state[t].notify_one();
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      SpreadOntoCpu(w);
      for (size_t i = next_call.fetch_add(1, std::memory_order_relaxed);
           i < count;
           i = next_call.fetch_add(1, std::memory_order_relaxed)) {
        fn(i, publish);
        if (calls_left.fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
        // The last call has returned: no position from `end` on will be
        // filled. A worker takes positions in order and waits on at most
        // one it will never get, so closing `workers` of them releases
        // every such wait, whether it began already or begins later.
        const size_t end = reserved.load(std::memory_order_relaxed);
        for (size_t t = end; t < end + workers; ++t) {
          state[t].store(kClosed, std::memory_order_relaxed);
          state[t].notify_one();
        }
      }
      for (;;) {
        const size_t t = next_item.fetch_add(1, std::memory_order_relaxed);
        state[t].wait(kEmpty, std::memory_order_acquire);
        if (state[t].load(std::memory_order_acquire) == kClosed) return;
        consume(items[t]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace infoshield
