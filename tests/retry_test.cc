// The retry/backoff kernel and the injected clocks it runs on: exact
// exponential schedules (deterministic jitter included), status-class
// retryability, attempt/budget bounds, and the FakeClock sleep log that
// makes all of it assertable without one real sleep.
#include "common/retry.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/status.h"

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

TEST(RetryPolicyTest, ExactExponentialScheduleWithCap) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffMs(0), 10);
  EXPECT_EQ(policy.BackoffMs(1), 20);
  EXPECT_EQ(policy.BackoffMs(2), 40);
  EXPECT_EQ(policy.BackoffMs(3), 80);
  EXPECT_EQ(policy.BackoffMs(4), 100);  // capped
  EXPECT_EQ(policy.BackoffMs(20), 100);
}

TEST(RetryPolicyTest, JitterIsDeterministicBoundedAndSeedSensitive) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1000;
  policy.max_backoff_ms = 1 << 20;
  policy.jitter = 0.5;
  bool some_attempt_jittered = false;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const int64_t base = 1000LL << attempt;
    const int64_t delay = policy.BackoffMs(attempt);
    // Same (seed, attempt) -> same delay, bit-for-bit.
    EXPECT_EQ(delay, policy.BackoffMs(attempt)) << attempt;
    // jitter=0.5 shaves away at most half the base delay.
    EXPECT_LE(delay, base) << attempt;
    EXPECT_GE(delay, base / 2) << attempt;
    if (delay != base) some_attempt_jittered = true;
    RetryPolicy reseeded = policy;
    reseeded.jitter_seed = policy.jitter_seed + 1;
    // A different stream; equality on every attempt would mean the seed
    // is ignored (checked in aggregate below).
    if (reseeded.BackoffMs(attempt) != delay) some_attempt_jittered = true;
  }
  EXPECT_TRUE(some_attempt_jittered);
}

TEST(RetryPolicyTest, DegenerateSettingsStaySane) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 0;  // disabled backoff
  EXPECT_EQ(policy.BackoffMs(0), 0);
  EXPECT_EQ(policy.BackoffMs(5), 0);
  policy.initial_backoff_ms = 10;
  policy.multiplier = 0.5;  // below 1 is clamped: delays never shrink
  EXPECT_GE(policy.BackoffMs(3), 10);
  policy.multiplier = 2.0;
  policy.jitter = 1.0;  // full jitter still sleeps at least 1ms
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_GE(policy.BackoffMs(attempt), 1) << attempt;
  }
}

TEST(RetryTest, RetryableClassesAreExactlyIOErrorAndResourceExhausted) {
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("disk hiccup")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("overload")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::FailedPrecondition("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::Internal("x")));
}

TEST(RetryTest, RetriesTransientFailuresThenSucceeds) {
  FakeClock clock;
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.max_attempts = 5;
  int calls = 0;
  RetryStats stats;
  const Result<int> result = RetryResult(
      policy, &clock,
      [&]() -> Result<int> {
        ++calls;
        if (calls < 3) return Status::IOError("transient");
        return calls;
      },
      &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  // Two failures -> the first two schedule steps, and nothing more.
  EXPECT_EQ(clock.sleeps(), (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(stats.slept_ms, 30);
}

TEST(RetryTest, NonRetryableStatusReturnsImmediately) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  const Result<int> result = RetryResult(policy, &clock, [&]() -> Result<int> {
    ++calls;
    return Status::FailedPrecondition("corrupt manifest");
  });
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryTest, AttemptCapEndsWithTheLastError) {
  FakeClock clock;
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_attempts = 3;
  int calls = 0;
  RetryStats stats;
  const Result<int> result = RetryResult(
      policy, &clock,
      [&]() -> Result<int> {
        ++calls;
        return Status::IOError("attempt " + std::to_string(calls));
      },
      &stats);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(result.status().message(), "attempt 3");
  EXPECT_EQ(stats.attempts, 3);
  // No sleep after the final attempt: 2 delays for 3 tries.
  EXPECT_EQ(clock.sleeps(), (std::vector<int64_t>{5, 10}));
}

TEST(RetryTest, BudgetStopsBeforeOverrunningSleep) {
  FakeClock clock;
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.max_attempts = 10;
  policy.budget_ms = 35;  // 10 + 20 fit; the 40ms third delay would not
  int calls = 0;
  RetryStats stats;
  const Result<int> result = RetryResult(
      policy, &clock,
      [&]() -> Result<int> {
        ++calls;
        return Status::IOError("still down");
      },
      &stats);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps(), (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(stats.slept_ms, 30);
}

TEST(RetryTest, RetryResultHandsBackTheFirstSuccessValue) {
  FakeClock clock;
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_attempts = 4;
  int calls = 0;
  RetryStats stats;
  Result<int> result = RetryResult(
      policy, &clock,
      [&]() -> Result<int> {
        ++calls;
        if (calls < 2) return Status::ResourceExhausted("busy");
        return 42;
      },
      &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(stats.attempts, 2);

  Result<int> never = RetryResult(policy, &clock, [&]() -> Result<int> {
    return Status::NotFound("not transient");
  });
  EXPECT_EQ(never.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace eep
