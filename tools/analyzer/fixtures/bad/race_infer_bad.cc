// Fixture: five fields and two captured locals written from concurrent
// contexts that are neither std::atomic nor a worker's own element slot
// — the seeded races the race inference must catch. Self-contained (a stub static ParallelFor)
// so the clang frontend can parse it too.
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

class ThreadPool {
 public:
  static void ParallelFor(size_t num_threads, size_t count,
                          const std::function<void(size_t)>& fn);
};

// Race 1: a write from the launched lambda itself (every worker bumps
// the same counter through the captured `this`).
class Telemetry {
 public:
  void Run(size_t n) {
    ThreadPool::ParallelFor(4, n, [this](size_t) { ++dropped_; });
  }

 private:
  long dropped_ = 0;
};

// Race 2: the write hides one call deep — the launched lambda looks
// innocent, the helper it calls touches the field.
class Journal {
 public:
  void Run(size_t n) {
    ThreadPool::ParallelFor(4, n, [this](size_t) { Append(); });
  }

 private:
  void Append() { ++entries_; }
  long entries_ = 0;
};

// Race 3: workers grow one shared container instead of writing their
// own slots of a presized one.
class Collector {
 public:
  void Run(size_t n) {
    ThreadPool::ParallelFor(4, n, [this](size_t i) {
      results_.push_back(static_cast<long>(i));
    });
  }

 private:
  std::vector<long> results_;
};

// Race 4: a plain global bumped by every worker.
long g_hits = 0;

void CountHits(size_t n) {
  ThreadPool::ParallelFor(4, n, [](size_t) { ++g_hits; });
}

// Race 5: two std::threads write the same field.
class Heartbeat {
 public:
  void Run() {
    std::thread beat([this] { ++beats_; });
    std::thread echo([this] { ++beats_; });
    beat.join();
    echo.join();
  }

 private:
  long beats_ = 0;
};

// Races 6 and 7: a local accumulator and a local vector, captured by
// reference and written by every worker.
long SumAndKeep(const std::vector<long>& v) {
  long total = 0;
  std::vector<long> seen;
  ThreadPool::ParallelFor(4, v.size(), [&](size_t i) {
    total += v[i];
    seen.push_back(v[i]);
  });
  return total + static_cast<long>(seen.size());
}
