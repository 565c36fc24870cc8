// Fixture: the concurrent idioms the race inference must NOT flag —
// fields and captured locals written before launch or after the join,
// read-only sharing, per-worker owned accumulators, disjoint element
// slots, and atomics.
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

class ThreadPool {
 public:
  static void ParallelFor(size_t num_threads, size_t count,
                          const std::function<void(size_t)>& fn);
};

// A worker's private tally: a by-value local of the lambda.
struct LocalTally {
  long n = 0;
};

std::atomic<long> g_runs{0};

class CleanCounter {
 public:
  void Run(size_t n) {
    seed_ = 7;  // written before any launch: single-threaded
    totals_.assign(n, 0);
    ThreadPool::ParallelFor(4, n, [this](size_t i) {
      LocalTally tally;
      tally.n += seed_;  // concurrent *read* of seed_ only
      totals_[i] = tally.n;  // each index owns its slot
      merged_.fetch_add(tally.n);
      g_runs.fetch_add(1);
    });
    finished_ = true;  // after the join: the workers are gone
  }

 private:
  int seed_ = 0;
  std::vector<long> totals_;
  std::atomic<long> merged_{0};
  bool finished_ = false;
};

// The same idioms on locals the launched lambda captures by reference:
// one element slot per index, an atomic total, a worker-local buffer,
// and plain writes only before the launch or after the join.
long SumBySlots(const std::vector<long>& v) {
  long scale = 0;
  scale = 3;  // before the launch
  std::vector<long> out(v.size());
  std::atomic<long> total{0};
  ThreadPool::ParallelFor(4, v.size(), [&](size_t i) {
    std::vector<long> scratch;
    scratch.push_back(v[i] * scale);
    out[i] = scratch.back();
    total += out[i];
  });
  long sum = total.load();
  for (long x : out) sum += x;  // after the join
  return sum;
}
