// The resilient request front over serve::Server: typed requests with
// per-request deadlines, a bounded admission queue feeding a fixed worker
// pool, and explicit degraded-mode reporting. This is the process-local
// core of the paper's OnTheMap deployment — a public web application
// taking heavy interactive traffic over pre-released tabulations — where
// the failure mode that matters is OVERLOAD, not just faults.
//
// Overload contract (docs/ARCHITECTURE.md, "Overload & degradation
// contract"):
//
//   * BOUNDED ADMISSION. The queue holds at most queue_capacity waiting
//     requests. A request arriving at a full queue is SHED immediately
//     with kResourceExhausted — no buffering, no snapshot work, no
//     unbounded latency. Admitted work is therefore bounded: at most
//     (capacity + workers) requests are in the system at once.
//   * DEADLINES, TWICE. A request's deadline is checked at admission
//     (an already-expired request is refused with kDeadlineExceeded
//     before it costs anything) and AGAIN when a worker picks it up (a
//     request that expired waiting in the queue is answered
//     kDeadlineExceeded without touching a snapshot). Snapshot work is
//     only ever spent on requests that can still meet their deadline.
//   * ACCOUNTED, EXACTLY. Every request ends in exactly one of
//     {completed, shed, expired-at-admission, expired-in-queue}; the
//     counters reconcile to the request total and snapshot_pins ==
//     completed (the "zero snapshot work for refused requests" proof the
//     saturation test asserts).
//   * NEVER DEAD. Health() answers without queueing — during overload or
//     store faults it still reports the service state: the server's
//     degraded flag (consecutive refresh failures past the threshold,
//     pinned epoch still serving), epoch age, backoff position, and the
//     admission counters.
//
// Time is injected (common/clock.h): deadlines, epoch age and the
// backoff schedule all read the server's clock, so every path above is
// unit-testable with a FakeClock and zero sleeps.
#ifndef EEP_SERVE_SERVICE_H_
#define EEP_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace eep::serve {

/// \brief Point lookup of one released cell (ServedTable::LookupCell
/// shape).
struct LookupRequest {
  std::string table;
  /// Exactly one value per attribute column, by column name.
  std::map<std::string, std::string> values;
  /// Absolute deadline in the service clock's domain (Service::NowMs);
  /// 0 = no deadline. DeadlineAfterMs() builds one from a relative
  /// budget.
  int64_t deadline_ms = 0;
};

/// \brief Top-k ranking over one released table.
struct TopKRequest {
  std::string table;
  size_t k = 10;
  int64_t deadline_ms = 0;  ///< As in LookupRequest.
};

/// \brief Health probe. Deadline-free by design: health must answer
/// exactly when the service is too loaded to answer anything else.
struct HealthRequest {};

/// \brief Admission/outcome counters. Every request finishes in exactly
/// one bucket: completed + shed + expired_at_admission + expired_in_queue
/// == requests received (stopped-service refusals excepted).
struct ServiceStats {
  uint64_t admitted = 0;     ///< Entered the queue.
  uint64_t completed = 0;    ///< Executed against a snapshot.
  uint64_t shed = 0;         ///< Refused at admission: queue full.
  uint64_t expired_at_admission = 0;  ///< Deadline already past on arrival.
  uint64_t expired_in_queue = 0;      ///< Deadline passed while queued.
  /// Snapshots pinned for execution. Equal to completed: shed and
  /// expired requests never touch one.
  uint64_t snapshot_pins = 0;
};

/// \brief Degradation state the front reports.
enum class ServiceState {
  kHealthy,   ///< Refresh is keeping up; serving the latest epoch.
  kDegraded,  ///< Refresh failing past the threshold; the PINNED epoch
              ///< keeps serving bit-identical answers, only freshness
              ///< suffers. Clears automatically on a refresh success.
};

/// \brief What a HealthRequest answers: the server's refresh-path health
/// plus this service's admission counters, one consistent sample.
struct ServiceHealth {
  ServiceState state = ServiceState::kHealthy;
  ServerHealth server;
  ServiceStats stats;
};

/// \brief Service configuration.
struct ServiceOptions {
  /// Waiting requests beyond the ones workers are executing. Full queue
  /// => shed. Must be >= 1.
  size_t queue_capacity = 128;
  /// Fixed worker pool size. Must be >= 1.
  int num_workers = 2;
  /// Deadline/backoff time source; nullptr = the server's clock.
  Clock* clock = nullptr;
  /// When true, workers start parked and execute nothing until Resume().
  /// Admission still runs — overload tests use this to fill the queue
  /// deterministically (without it, shedding depends on scheduling).
  bool start_suspended = false;
};

/// \brief The request front. Thread-safe: any number of threads may call
/// Lookup/TopK/Health/stats concurrently; requests block the calling
/// thread until their outcome (which is why admitted latency stays
/// bounded — there is no fire-and-forget buffering anywhere).
class Service {
 public:
  /// `server` must outlive the service.
  static Result<std::unique_ptr<Service>> Create(Server* server,
                                                 ServiceOptions options = {});

  /// Stops admission, drains queued requests (each still gets its
  /// deadline re-checked) and joins the workers.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Blocking point lookup: admitted, executed by a worker against one
  /// pinned snapshot, answered verbatim. kResourceExhausted when shed,
  /// kDeadlineExceeded when expired (either check), kNotFound/
  /// kInvalidArgument from the lookup itself, kFailedPrecondition after
  /// shutdown began.
  Result<std::string> Lookup(const LookupRequest& request);

  /// Blocking top-k ranking; same admission semantics as Lookup.
  Result<std::vector<RankedCell>> TopK(const TopKRequest& request);

  /// Never queued, never sheds, no deadline: one consistent health
  /// sample even (especially) under overload or store faults.
  ServiceHealth Health(const HealthRequest& request = {}) const;

  ServiceStats stats() const;

  /// The service clock's current time; deadlines are absolute in this
  /// domain.
  int64_t NowMs() const;
  /// NowMs() + budget_ms, the usual way to stamp a request's deadline.
  int64_t DeadlineAfterMs(int64_t budget_ms) const;

  /// Unparks the workers of a start_suspended service. Idempotent.
  void Resume();

 private:
  /// One in-flight request, owned by the calling thread's stack frame
  /// for its whole life (the caller outlives it by blocking).
  struct Task {
    enum class Kind { kLookup, kTopK };
    explicit Task(Kind k) : kind(k) {}
    Kind kind;
    const LookupRequest* lookup = nullptr;
    const TopKRequest* topk = nullptr;
    int64_t deadline_ms = 0;
    Status status;  ///< Outcome; OK means the payload below is set.
    std::string count;
    std::vector<RankedCell> ranked;
    bool done = false;  ///< Guarded by mu_.
  };

  Service(Server* server, ServiceOptions options);

  /// Admission: deadline gate, then the capacity gate, then enqueue.
  /// Returns non-OK without the task ever entering the queue.
  Status Enqueue(Task* task);
  /// Blocks until a worker marked the task done.
  void AwaitDone(Task* task);
  /// Worker-side: deadline recheck, then the snapshot work. Lock-free —
  /// counters are atomics and the snapshot is immutable.
  void Execute(Task* task);
  void WorkerLoop();

  Server* const server_;
  const ServiceOptions options_;
  Clock* clock_;  ///< Never null.

  /// Guards queue_, suspended_, stop_, awaiting_ and every Task::done
  /// flag.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wakes workers (work/stop/resume).
  std::condition_variable done_cv_;  ///< Wakes callers awaiting outcomes.
  std::condition_variable drain_cv_;  ///< Wakes the destructor's drain.
  /// Admitted callers that have not yet left AwaitDone. The destructor
  /// joins the workers (every queued task gets its outcome) and then
  /// waits for this to reach zero, so no caller is still inside a
  /// member function when the members are destroyed.
  uint64_t awaiting_ = 0;
  /// The bounded admission queue; Enqueue's explicit capacity check
  /// against options_.queue_capacity is the bound (eep-lint rule
  /// `unbounded-queue` watches growth sites like this one).
  std::deque<Task*> queue_;
  bool suspended_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_at_admission_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> snapshot_pins_{0};
};

}  // namespace eep::serve

#endif  // EEP_SERVE_SERVICE_H_
