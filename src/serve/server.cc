#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "eval/workloads.h"

namespace eep::serve {

namespace {

constexpr int64_t kOpenBackoffBaseMs = 10;
constexpr uint64_t kOpenAttempts = 4;

/// The server's one failure schedule, for the refresh loop and Open alike:
/// the wait after the k-th consecutive failure (k from 0) is
/// min(base * 2^k, 16 * base).
int64_t BackoffMs(int64_t base_ms, uint64_t k) {
  return base_ms << std::min<uint64_t>(k, 4);
}

/// Runs `read` until it succeeds, fails with anything but kIOError (the
/// one class the store's read path returns, for a disk fault and for
/// corruption alike), or has made kOpenAttempts attempts, sleeping the
/// failure schedule on `clock` between attempts.
template <typename Read>
auto RetryIOError(Clock* clock, Read read) -> decltype(read()) {
  for (uint64_t k = 0;; ++k) {
    auto result = read();
    if (result.ok() || result.status().code() != StatusCode::kIOError ||
        k + 1 >= kOpenAttempts) {
      return result;
    }
    clock->SleepMs(BackoffMs(kOpenBackoffBaseMs, k));
  }
}

}  // namespace

std::string ExpectedFingerprint(
    const release::WorkloadReleaseConfig& config) {
  return store::WorkloadFingerprint(config.workload,
                                    eval::MechanismKindName(config.mechanism),
                                    config.alpha, config.epsilon,
                                    config.delta);
}

Server::Server(std::unique_ptr<store::Store> store, ServerOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()),
      store_(std::move(store)) {
  next_poll_delay_ms_ = PollDelayMs(0);
  epoch_changed_ms_ = clock_->NowMs();
}

int64_t Server::PollDelayMs(uint64_t failures) const {
  return BackoffMs(std::max(options_.poll_interval_ms, 1), failures);
}

Result<std::unique_ptr<Server>> Server::Open(const std::string& dir,
                                             ServerOptions options) {
  // A transient disk fault at startup should not kill the serving
  // process: the read-only open and the initial snapshot load each retry
  // a kIOError a bounded number of times; a fingerprint mismatch
  // surfaces at once.
  Clock* clock = options.clock != nullptr ? options.clock : Clock::Real();
  EEP_ASSIGN_OR_RETURN(
      std::unique_ptr<store::Store> store,
      RetryIOError(clock, [&] { return store::Store::OpenReadOnly(dir); }));
  std::unique_ptr<Server> server(
      new Server(std::move(store), std::move(options)));
  auto snapshot = std::make_shared<Snapshot>();
  const uint64_t epoch = server->store_->last_committed_epoch();
  if (epoch > 0) {
    EEP_ASSIGN_OR_RETURN(*snapshot, RetryIOError(clock, [&] {
                           return Snapshot::Load(*server->store_, epoch);
                         }));
    if (!server->options_.expected_fingerprint.empty() &&
        snapshot->fingerprint() != server->options_.expected_fingerprint) {
      return Status::FailedPrecondition(
          "store '" + dir + "' epoch " + std::to_string(epoch) +
          " has fingerprint '" + snapshot->fingerprint() + "', expected '" +
          server->options_.expected_fingerprint + "'");
    }
  }
  server->snapshot_ = std::move(snapshot);
  if (server->options_.poll_interval_ms > 0) {
    server->refresh_thread_ = std::thread(&Server::RefreshLoop, server.get());
  }
  return server;
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (refresh_thread_.joinable()) refresh_thread_.join();
}

std::shared_ptr<const Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

Status Server::RefreshNow() {
  // refresh_mu_ serializes the disk work (Store::Refresh mutates the
  // store's epoch index); mu_ is only taken for the pointer swap, so
  // readers are never blocked behind a snapshot load or teardown.
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  const uint64_t serving = snapshot()->epoch();
  Result<uint64_t> latest = store_->Refresh();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.polls;
  }
  if (!latest.ok()) {
    RecordRefreshFailure();
    return latest.status();
  }
  if (latest.value() == serving) {
    RecordRefreshSuccess();
    return Status::OK();
  }

  Result<Snapshot> loaded = Snapshot::Load(*store_, latest.value());
  Status status = loaded.status();
  if (status.ok() && !options_.expected_fingerprint.empty() &&
      loaded.value().fingerprint() != options_.expected_fingerprint) {
    status = Status::FailedPrecondition(
        "epoch " + std::to_string(latest.value()) + " has fingerprint '" +
        loaded.value().fingerprint() + "', expected '" +
        options_.expected_fingerprint + "'");
  }
  if (!status.ok()) {
    RecordRefreshFailure();
    return status;
  }
  auto next = std::make_shared<const Snapshot>(std::move(loaded).value());
  // Released only after mu_ is: when no reader pins the displaced
  // snapshot, its teardown runs at return, not inside the readers' lock.
  std::shared_ptr<const Snapshot> displaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The swap: one pointer exchange.
    displaced = std::exchange(snapshot_, std::move(next));
    ++stats_.swaps;
    consecutive_failures_ = 0;
    next_poll_delay_ms_ = PollDelayMs(0);
    epoch_changed_ms_ = clock_->NowMs();
  }
  cv_.notify_all();
  return Status::OK();
}

void Server::RecordRefreshFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.failures;
  ++consecutive_failures_;
  // The schedule: base, 2b, 4b, ... capped at 16b — never a hot-poll
  // through a persistent fault. Counted only when the delay actually
  // grew, so tests can assert the exact number of schedule steps.
  const int64_t delay = PollDelayMs(consecutive_failures_);
  if (delay > next_poll_delay_ms_) ++stats_.backoffs;
  next_poll_delay_ms_ = delay;
}

void Server::RecordRefreshSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  next_poll_delay_ms_ = PollDelayMs(0);
}

bool Server::WaitForEpoch(uint64_t epoch, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return stop_ || snapshot_->epoch() >= epoch;
  }) && snapshot_->epoch() >= epoch;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ServerHealth Server::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerHealth health;
  health.serving_epoch = snapshot_->epoch();
  health.consecutive_failures = consecutive_failures_;
  health.degraded =
      options_.degraded_after_failures > 0 &&
      consecutive_failures_ >=
          static_cast<uint64_t>(options_.degraded_after_failures);
  health.epoch_age_ms = clock_->NowMs() - epoch_changed_ms_;
  health.next_poll_delay_ms = next_poll_delay_ms_;
  return health;
}

void Server::RefreshLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    // Refresh failures are already counted; the loop's job is to keep the
    // previous snapshot serving and try again next tick.
    RefreshNow().ok();
    lock.lock();
    // Failure-adaptive cadence: RecordRefreshFailure stretched the delay,
    // success reset it to the base poll interval. The wall wait uses the
    // OS condvar (shutdown must interrupt it); the SCHEDULE — what the
    // tests pin through a FakeClock — is next_poll_delay_ms_ itself.
    const auto interval = std::chrono::milliseconds(next_poll_delay_ms_);
    cv_.wait_for(lock, interval, [&] { return stop_; });
  }
}

}  // namespace eep::serve
