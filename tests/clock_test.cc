// The injected clocks the serving layer schedules on: a FakeClock moves
// only by hand and logs every sleep, so deadline and backoff schedules are
// assertable without one real sleep; the RealClock is one process-wide
// monotonic instance.
#include "common/clock.h"

#include <gtest/gtest.h>

#include <vector>

namespace eep {
namespace {

TEST(ClockTest, FakeClockAdvancesOnlyByHand) {
  FakeClock clock(100);
  EXPECT_EQ(clock.NowMs(), 100);
  clock.AdvanceMs(25);
  EXPECT_EQ(clock.NowMs(), 125);
  clock.AdvanceMs(0);
  clock.AdvanceMs(-5);  // never moves backwards
  EXPECT_EQ(clock.NowMs(), 125);
}

TEST(ClockTest, FakeClockSleepAdvancesAndLogsTheSchedule) {
  FakeClock clock;
  clock.SleepMs(10);
  clock.SleepMs(20);
  clock.SleepMs(0);  // logged (it was scheduled) but does not move time
  EXPECT_EQ(clock.NowMs(), 30);
  EXPECT_EQ(clock.sleeps(), (std::vector<int64_t>{10, 20, 0}));
}

TEST(ClockTest, RealClockIsMonotonicAndSleeps) {
  Clock* clock = Clock::Real();
  const int64_t before = clock->NowMs();
  clock->SleepMs(2);
  const int64_t after = clock->NowMs();
  EXPECT_GE(after, before + 1);
  EXPECT_EQ(clock, Clock::Real());  // one process-wide instance
}

}  // namespace
}  // namespace eep
