// Generic retry with jittered exponential backoff, for transient-fault
// handling around the store's I/O surface (serve::Server wraps
// Store::OpenReadOnly / Store::Refresh with it) and for the refresh
// thread's failure schedule.
//
// Design constraints, in repo style:
//
//   * DETERMINISTIC. The jitter for attempt k is a pure function of
//     (jitter_seed, k) via the seeded Rng, so a backoff schedule is
//     bit-reproducible and tests assert it exactly (tests/retry_test.cc).
//     No clocks seed anything.
//   * STATUS-CLASS DRIVEN. Only transient classes are retried: kIOError
//     (a disk hiccup — the store reports torn/corrupt state the same
//     way, which is why attempts are CAPPED) and kResourceExhausted
//     (overload; backing off is the textbook response). Everything else
//     — NotFound, InvalidArgument, FailedPrecondition, corruption-shaped
//     failures included — returns immediately.
//   * BOUNDED. max_attempts caps the tries and budget_ms caps the total
//     backoff slept; whichever runs out first ends the loop with the
//     last error. Retry must never turn a fault into unbounded latency.
//
// Time is injected via common/clock.h: production passes Clock::Real(),
// tests a FakeClock whose SleepMs advances fake time and records the
// schedule instead of blocking.
#ifndef EEP_COMMON_RETRY_H_
#define EEP_COMMON_RETRY_H_

#include <cstdint>
#include <utility>

#include "common/clock.h"
#include "common/status.h"

namespace eep {

/// \brief Backoff + retryability policy. Value type; copy freely.
struct RetryPolicy {
  /// Delay before the first retry. <= 0 disables backoff sleeps (retries
  /// become immediate — useful only in tests).
  int64_t initial_backoff_ms = 10;
  /// Hard cap on any single delay.
  int64_t max_backoff_ms = 1000;
  /// Growth factor per failed attempt (>= 1).
  double multiplier = 2.0;
  /// Fraction of each delay randomized away: the attempt-k delay is
  /// base_k * (1 - jitter * u_k) with u_k ~ U[0,1) drawn deterministically
  /// from jitter_seed. 0 gives the exact exponential schedule.
  double jitter = 0.0;
  /// Total tries including the first. 1 means "no retries".
  int max_attempts = 4;
  /// Total milliseconds of backoff the whole call may sleep; 0 = no
  /// budget beyond max_attempts. A delay that would overrun the budget is
  /// not slept and the loop ends with the last error.
  int64_t budget_ms = 0;
  /// Seed of the deterministic jitter stream.
  uint64_t jitter_seed = 0x5EEDBACCULL;

  /// The (jittered, capped) delay after the `attempt`-th failure,
  /// attempt = 0 for the first. Pure function of (policy, attempt).
  int64_t BackoffMs(int attempt) const;
};

/// True for status classes worth retrying: kIOError, kResourceExhausted.
bool IsRetryableStatus(const Status& status);

/// \brief What a RetryResult call did, for counters/tests.
struct RetryStats {
  int attempts = 0;        ///< Calls made (>= 1 unless budget was 0-shot).
  int64_t slept_ms = 0;    ///< Total backoff actually slept.
};

/// Invokes `fn` (returning a Result<T>) until it succeeds, returns a
/// non-retryable error, or the policy's attempt/budget bounds run out.
/// Hands back the first success, or the last Result either way.
template <typename Fn>
auto RetryResult(const RetryPolicy& policy, Clock* clock, Fn&& fn,
                 RetryStats* stats = nullptr) -> decltype(fn()) {
  using ResultT = decltype(fn());
  RetryStats local;
  RetryStats* out = stats != nullptr ? stats : &local;
  *out = RetryStats{};
  const int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 0;; ++attempt) {
    ++out->attempts;
    ResultT result = fn();
    if (result.ok() || !IsRetryableStatus(result.status()) ||
        attempt + 1 >= attempts) {
      return result;
    }
    const int64_t delay = policy.BackoffMs(attempt);
    if (policy.budget_ms > 0 && out->slept_ms + delay > policy.budget_ms) {
      return result;
    }
    clock->SleepMs(delay);
    out->slept_ms += delay;
  }
}

}  // namespace eep

#endif  // EEP_COMMON_RETRY_H_
