#include "util/logging.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/thread_pool.h"

namespace infoshield {
namespace {

TEST(LoggingTest, ChecksPassOnTrueCondition) {
  CHECK(true) << "never printed";
  CHECK_EQ(1, 1);
  CHECK_NE(1, 2);
  CHECK_LT(1, 2);
  CHECK_LE(2, 2);
  CHECK_GT(3, 2);
  CHECK_GE(3, 3);
  SUCCEED();
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ CHECK(false) << "boom"; }, "Check failed");
}

TEST(LoggingDeathTest, CheckEqPrintsValues) {
  EXPECT_DEATH({ CHECK_EQ(2 + 2, 5); }, "4 vs. 5");
}

TEST(LoggingDeathTest, FatalLogAborts) {
  EXPECT_DEATH({ LOG(FATAL) << "fatal path"; }, "fatal path");
}

TEST(LoggingTest, SeverityFilterRoundTrips) {
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  LOG(INFO) << "suppressed";
  SetMinLogSeverity(original);
}

TEST(LoggingTest, SeverityCanChangeWhileWorkersLog) {
  // Index 0 moves the floor between kWarning and kError while the other
  // workers log below it, so the floor is written and read on several
  // threads at once (the TSan job runs this suite). Either floor
  // suppresses INFO.
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  std::atomic<size_t> logging{0};
  ThreadPool::ParallelFor(4, 256, [&logging](size_t i) {
    if (i == 0) {
      // Flip only once another worker has begun logging, so the flips
      // overlap its reads rather than all landing before them.
      while (logging.load() == 0) std::this_thread::yield();
      for (int flip = 0; flip < 1000; ++flip) {
        SetMinLogSeverity(flip % 2 == 0 ? LogSeverity::kWarning
                                        : LogSeverity::kError);
      }
      return;
    }
    logging.fetch_add(1);
    LOG(INFO) << "suppressed " << i;
  });
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(original);
}

}  // namespace
}  // namespace infoshield
