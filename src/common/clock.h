// Injected time for everything the serving layer schedules: request
// deadlines, refresh and open backoff, epoch age. Production code reads
// the one process-wide monotonic RealClock; tests inject a FakeClock they
// advance by hand, so every deadline and backoff path is unit-testable
// without a single real sleep (tests/clock_test.cc, tests/service_test.cc).
//
// The domain is plain milliseconds from an arbitrary epoch (process start
// for the real clock, 0 for a fresh fake) — only differences are
// meaningful, which is all deadlines and backoff need.
#ifndef EEP_COMMON_CLOCK_H_
#define EEP_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace eep {

/// \brief Monotonic time source. Thread-safe in both implementations.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic milliseconds since this clock's arbitrary epoch.
  virtual int64_t NowMs() const = 0;

  /// Blocks the calling thread for `ms` milliseconds (<= 0 is a no-op).
  /// The fake clock advances itself instead of blocking, so retry loops
  /// run at full speed under test while still observing a moving clock.
  virtual void SleepMs(int64_t ms) = 0;

  /// The process-wide real clock (never destroyed).
  static Clock* Real();
};

/// \brief std::chrono::steady_clock-backed implementation.
class RealClock : public Clock {
 public:
  RealClock();
  int64_t NowMs() const override;
  void SleepMs(int64_t ms) override;

 private:
  int64_t origin_ns_;  ///< steady_clock at construction; NowMs is relative.
};

/// \brief Deterministic clock for tests: time moves only via AdvanceMs or
/// SleepMs (which advances instead of blocking and records the request,
/// so a test can assert an exact backoff schedule).
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_ms = 0) : now_ms_(start_ms) {}

  int64_t NowMs() const override {
    return now_ms_.load(std::memory_order_acquire);
  }

  /// Advances the clock and logs `ms` (the SCHEDULED delay, pre-clamp) so
  /// tests can assert the exact sequence of waits a retry loop performed.
  void SleepMs(int64_t ms) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeps_.push_back(ms);
    }
    AdvanceMs(ms);
  }

  /// Moves time forward (<= 0 is a no-op); never blocks.
  void AdvanceMs(int64_t ms) {
    if (ms > 0) now_ms_.fetch_add(ms, std::memory_order_acq_rel);
  }

  /// Every SleepMs delay requested so far, in order.
  std::vector<int64_t> sleeps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sleeps_;
  }

 private:
  std::atomic<int64_t> now_ms_;
  mutable std::mutex mu_;
  std::vector<int64_t> sleeps_;
};

}  // namespace eep

#endif  // EEP_COMMON_CLOCK_H_
