// Monotonic wall-clock timer used by the benchmark harnesses.

#ifndef INFOSHIELD_UTIL_TIMER_H_
#define INFOSHIELD_UTIL_TIMER_H_

#include <chrono>

namespace infoshield {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_TIMER_H_
