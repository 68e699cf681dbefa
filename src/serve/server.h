// Concurrent serving front end over the crash-safe release store: the
// paper's OnTheMap setting is a public web application answering marginal
// and ranking lookups over pre-released tabulations, and this is the
// process-local core of that — readers answer from an immutable in-memory
// Snapshot at memory speed while the release pipeline commits new epochs
// behind their backs.
//
// Concurrency contract (docs/ARCHITECTURE.md, "Serving contract"):
//
//   * EPOCH PINNING. snapshot() hands back a shared_ptr<const Snapshot>;
//     every answer derived from it comes from that one committed epoch.
//     A swap mid-request never changes an answer — the superseded
//     snapshot stays alive until its last reader drops it.
//   * ATOMIC SWAP. A background refresh thread polls the store for newly
//     committed epochs (Store::Refresh — the epoch supersession of the
//     commit protocol is the swap primitive), loads the new epoch into a
//     fresh Snapshot through the verifying read path, and publishes it
//     with one pointer swap. Readers never observe a partial epoch, and
//     wait only for that pointer copy: the load runs before the lock and
//     the displaced snapshot's teardown after it.
//   * FAILURE ISOLATION. A failed refresh (mid-commit crash recovered by
//     the writer, IOError, fingerprint mismatch) leaves the previous
//     snapshot serving; the failure is counted, never served.
//   * STALENESS BOUND. A committed epoch is serving within one poll
//     interval plus one snapshot load; WaitForEpoch makes that bound
//     testable.
//   * DEGRADED, NOT DEAD. Consecutive refresh failures back the poll
//     schedule off exponentially (capped at 16x the poll interval — no
//     hot-polling through a persistent fault) and, past
//     options.degraded_after_failures, flip health() to degraded while
//     the pinned epoch KEEPS SERVING. A refresh success resets both.
//     (docs/ARCHITECTURE.md, "Overload & degradation contract".)
//
// The Server owns a READ-ONLY store instance (Store::OpenReadOnly), so it
// never mutates the directory and can follow a live writer — same
// process or another one — with no coordination.
#ifndef EEP_SERVE_SERVER_H_
#define EEP_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/status.h"
#include "release/pipeline.h"
#include "serve/snapshot.h"
#include "store/store.h"

namespace eep::serve {

/// \brief Server configuration.
struct ServerOptions {
  /// Poll cadence of the background refresh thread. <= 0 disables the
  /// thread entirely: epochs then advance only through RefreshNow(),
  /// which tests use for deterministic swap points.
  int poll_interval_ms = 50;
  /// When non-empty, an epoch whose manifest fingerprint differs is
  /// REFUSED (counted as a refresh failure, previous snapshot keeps
  /// serving) — the reader-side check that it is looking at the release
  /// it expects. ExpectedFingerprint() derives the value for a pipeline
  /// config.
  std::string expected_fingerprint;
  /// Consecutive refresh failures after which health() reports degraded
  /// (the pinned epoch keeps serving either way). <= 0 disables the flip.
  int degraded_after_failures = 3;
  /// Time source for backoff, Open's retry sleeps, epoch age and
  /// deadlines of a Service over this server. nullptr means
  /// Clock::Real(); tests inject a FakeClock to pin the exact schedule
  /// without sleeping.
  Clock* clock = nullptr;
};

/// The fingerprint RunReleaseWorkload commits for `config` — hand it to
/// ServerOptions::expected_fingerprint so the server refuses to serve any
/// other release from the same directory.
std::string ExpectedFingerprint(const release::WorkloadReleaseConfig& config);

/// \brief Refresh-path health, the server half of what a HealthRequest
/// reports (serve::Service adds the admission counters). A value type:
/// one consistent sample under the server's mutex.
struct ServerHealth {
  /// True once consecutive_failures >= options.degraded_after_failures.
  /// Degraded means "serving the pinned epoch, refresh is failing" —
  /// answers stay bit-identical, only freshness suffers.
  bool degraded = false;
  uint64_t serving_epoch = 0;
  uint64_t consecutive_failures = 0;
  /// Clock ms since the serving snapshot was published (staleness).
  int64_t epoch_age_ms = 0;
  /// The backoff schedule's current position: what the refresh thread
  /// waits before the next poll. Doubles per failure up to the cap,
  /// resets to the base on success — the exact sequence
  /// service/failpoint tests assert through a FakeClock.
  int64_t next_poll_delay_ms = 0;
};

/// \brief The serving layer. Thread-safe: snapshot(), RefreshNow,
/// WaitForEpoch, stats() and health() may all be called concurrently from
/// any number of threads. Queries go through a pinned snapshot() (or a
/// serve::Service over this server): Snapshot::Find, then ServedTable's
/// LookupCell/TopK, all against one epoch.
class Server {
 public:
  /// \brief Refresh-loop observability counters.
  struct Stats {
    uint64_t polls = 0;     ///< Store::Refresh probes (loop + RefreshNow).
    uint64_t swaps = 0;     ///< Snapshots published (initial load excluded).
    uint64_t failures = 0;  ///< Refreshes that kept the previous snapshot.
    uint64_t backoffs = 0;  ///< Failure-driven poll-delay increases.
  };

  /// Opens `dir` read-only, loads the current epoch (or the empty
  /// snapshot when nothing is committed yet) and starts the refresh
  /// thread unless options disable it. The read-only open and the
  /// snapshot load each get up to 4 attempts against kIOError, sleeping
  /// 10, 20 and 40 ms on the clock between them. Fails on a store that
  /// stays unreadable or on a fingerprint mismatch with
  /// options.expected_fingerprint.
  static Result<std::unique_ptr<Server>> Open(const std::string& dir,
                                              ServerOptions options = {});

  /// Stops the refresh thread.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Pins the snapshot serving NOW. Hold it for the duration of one
  /// request: every lookup against it answers from the same epoch even
  /// if a commit supersedes it mid-request.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Epoch of the currently serving snapshot (0 before the first one).
  uint64_t serving_epoch() const { return snapshot()->epoch(); }

  /// One synchronous poll: detect a newer committed epoch, load and swap
  /// it in. OK when nothing changed; the error (counted in stats) when
  /// the store refresh or snapshot load failed — the previous snapshot
  /// keeps serving either way. Serialized against the refresh thread.
  Status RefreshNow();

  /// Blocks until the serving epoch is >= `epoch` or `timeout_ms`
  /// elapsed; true when the epoch is serving. Needs the refresh thread
  /// (or concurrent RefreshNow calls) to make progress.
  bool WaitForEpoch(uint64_t epoch, int timeout_ms) const;

  Stats stats() const;

  /// One consistent health sample (see ServerHealth).
  ServerHealth health() const;

  /// The injected time source (ServerOptions::clock or Clock::Real()) —
  /// a Service over this server times deadlines against the same clock.
  Clock* clock() const { return clock_; }

 private:
  Server(std::unique_ptr<store::Store> store, ServerOptions options);

  void RefreshLoop();
  /// The refresh loop's wait after `failures` consecutive failures: the
  /// failure schedule at base max(poll_interval_ms, 1).
  int64_t PollDelayMs(uint64_t failures) const;
  /// Failure/success bookkeeping under mu_: counters, backoff schedule,
  /// degraded state input.
  void RecordRefreshFailure();
  void RecordRefreshSuccess();

  const ServerOptions options_;
  Clock* clock_;  ///< Never null.
  /// Touched only under refresh_mu_ (the store's Refresh mutates it).
  std::unique_ptr<store::Store> store_;
  /// Serializes refreshers (the loop and RefreshNow callers) across the
  /// disk work; never held while mu_ is. Acquired before mu_.
  std::mutex refresh_mu_;
  /// Guards snapshot_, stats_ and stop_; readers hold it only for the
  /// pointer copy, so a slow snapshot load or teardown never blocks them.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  ///< Swap + shutdown notifications.
  std::shared_ptr<const Snapshot> snapshot_;
  Stats stats_;
  /// Refresh failures since the last success; drives backoff + degraded.
  uint64_t consecutive_failures_ = 0;
  /// What the refresh loop waits before its next poll (the schedule).
  int64_t next_poll_delay_ms_ = 0;
  /// clock_ time the serving snapshot was published (epoch age).
  int64_t epoch_changed_ms_ = 0;
  bool stop_ = false;
  std::thread refresh_thread_;
};

}  // namespace eep::serve

#endif  // EEP_SERVE_SERVER_H_
