// Fixed-size worker pool for embarrassingly parallel stages. The fine
// stage processes coarse clusters independently, so InfoShield can fan
// them out across cores (the paper's 8-hour/4M-documents figure is a
// single laptop; multicore shortens it proportionally).
//
// All queue/bookkeeping state is guarded by mutex_ under the compile-time
// contract from util/thread_annotations.h: a Clang build with
// -DINFOSHIELD_THREAD_SAFETY=ON rejects any access outside the lock.

#ifndef INFOSHIELD_UTIL_THREAD_POOL_H_
#define INFOSHIELD_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace infoshield {

class ThreadPool {
 public:
  // num_threads == 0 picks the hardware concurrency: the number of CPUs
  // the calling thread may run on (its affinity mask, which a cpuset or
  // taskset narrows), at least 1. Worker i starts on the i-th CPU the
  // process may use (round-robin) and then keeps the creating thread's
  // whole CPU mask, so a pool's workers begin spread out rather than
  // wherever the kernel first puts new threads (thread_pool.cc).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; runs on some worker. Safe to call concurrently from
  // any thread, including from inside a running task (the chain is
  // covered by Wait).
  void Submit(std::function<void()> task) EXCLUDES(mutex_);

  // Blocks until every submitted task has finished.
  void Wait() EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }

  // The effective worker count for `requested` (0 = hardware concurrency
  // as defined above) — the same resolution the constructor applies.
  // Callers outside src/util/ use this instead of touching std::thread
  // directly (lint rule raw-concurrency).
  static size_t ResolveNumThreads(size_t requested);

  // Runs fn(i) for i in [0, count) across the pool and waits. fn must be
  // safe to call concurrently for distinct i.
  static void ParallelFor(size_t num_threads, size_t count,
                          const std::function<void(size_t)>& fn);

  // Splits items [0, count) into contiguous chunks of about equal total
  // weight(i) for ParallelFor: one chunk for one worker, else at most 4
  // per worker of `num_threads` (0 = hardware concurrency), and at most
  // total / min_chunk_weight, so a light input is one chunk. Chunk c is
  // [bounds[c], bounds[c + 1]) of the returned bounds; no chunk is
  // empty, and there are none when count == 0.
  template <typename WeightFn>
  static std::vector<size_t> BalancedChunks(size_t num_threads, size_t count,
                                            size_t min_chunk_weight,
                                            WeightFn weight) {
    std::vector<size_t> bounds;
    if (count == 0) return bounds;
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) total += weight(i);
    const size_t workers = ResolveNumThreads(num_threads);
    const size_t chunks = std::max<size_t>(
        1, std::min({workers == 1 ? 1 : 4 * workers,
                     total / std::max<size_t>(min_chunk_weight, 1), count}));
    bounds.push_back(0);
    size_t seen = 0;
    for (size_t i = 0; i + 1 < count && bounds.size() < chunks; ++i) {
      seen += weight(i);
      // Close chunk k once its items reach k / chunks of the weight.
      if (seen * chunks >= bounds.size() * total) bounds.push_back(i + 1);
    }
    bounds.push_back(count);
    return bounds;
  }

 private:
  void WorkerLoop() EXCLUDES(mutex_);

  // Immutable after the constructor returns; joined in the destructor.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  CondVar task_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_THREAD_POOL_H_
