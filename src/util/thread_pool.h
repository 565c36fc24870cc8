// Fork-join over an index range for embarrassingly parallel stages. The
// fine stage processes coarse clusters independently, so InfoShield can
// fan them out across cores (the paper's 8-hour/4M-documents figure is a
// single laptop; multicore shortens it proportionally).
//
// ParallelFor starts its workers, lets them claim indices from one atomic
// counter and joins them before it returns. ParallelForPublishing does the
// same for calls that publish further items while they run, and runs
// those items on whichever workers are free. Nothing outlives a call, so
// there is no pool object and no lock; ThreadPool only scopes the four
// static functions below.

#ifndef INFOSHIELD_UTIL_THREAD_POOL_H_
#define INFOSHIELD_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace infoshield {

class ThreadPool {
 public:
  // The effective worker count for `requested`: itself, or for 0 the
  // hardware concurrency, meaning the number of CPUs the calling thread
  // may run on (its affinity mask, which a cpuset or taskset narrows),
  // at least 1. Callers outside src/util/ use this instead of touching
  // std::thread directly (lint rule raw-concurrency).
  static size_t ResolveNumThreads(size_t requested);

  // Runs fn(i) for i in [0, count) on min(ResolveNumThreads(num_threads),
  // count) workers and returns once every call has. One worker means the
  // calling thread, in index order. Otherwise worker w starts on the w-th
  // CPU the process may use (round-robin) and then keeps the calling
  // thread's whole CPU mask, so the workers begin spread out rather than
  // wherever the kernel first puts new threads (thread_pool.cc). fn must
  // be safe to call concurrently for distinct i.
  static void ParallelFor(size_t num_threads, size_t count,
                          const std::function<void(size_t)>& fn);

  // What ParallelForPublishing hands each fn call: publish(item) queues
  // `item` for consume.
  using Publish = std::function<void(size_t item)>;

  // Runs fn(i, publish) for i in [0, count), as ParallelFor does, and
  // consume(item) once for every item those calls publish, at most
  // `max_items` in all. A worker takes the next i while any is left, then
  // the published items in publish order, so items run while later fn
  // calls are still publishing; a worker with nothing published blocks
  // until a call publishes or the last call returns. consume(item) sees
  // every write its publisher made before publishing it. Workers number
  // min(ResolveNumThreads(num_threads), count + max_items); one means the
  // calling thread: every fn call in index order, then every item in
  // publish order. fn must be safe to call concurrently for distinct i,
  // and consume for distinct items.
  static void ParallelForPublishing(
      size_t num_threads, size_t count, size_t max_items,
      const std::function<void(size_t, const Publish&)>& fn,
      const std::function<void(size_t)>& consume);

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
};

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_THREAD_POOL_H_
