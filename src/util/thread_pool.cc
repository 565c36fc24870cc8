#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <thread>

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

}  // namespace infoshield
