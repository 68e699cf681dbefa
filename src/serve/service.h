// The resilient request front over serve::Server: typed requests with
// per-request deadlines, an admission gate that bounds how many requests
// run and wait, and explicit degraded-mode reporting. This is the
// process-local core of the paper's OnTheMap deployment — a public web
// application taking heavy interactive traffic over pre-released
// tabulations — where the failure mode that matters is OVERLOAD, not just
// faults.
//
// Every caller blocks until it is answered, so the front has no threads
// of its own: a caller passes the gate and runs its own request on its
// own thread. The gate has num_workers execution slots and queue_capacity
// waiting places, guarded by one mutex and one condition variable.
//
// Overload contract (docs/ARCHITECTURE.md, "Overload & degradation
// contract"):
//
//   * BOUNDED ADMISSION. At most num_workers requests run and at most
//     queue_capacity wait for a slot. A request arriving when every
//     waiting place is taken is SHED immediately with kResourceExhausted —
//     no buffering, no snapshot work, no unbounded latency. At most
//     (capacity + workers) requests are in the system at once. A new
//     arrival never takes a slot ahead of a waiting caller; waiters take
//     freed slots in the order the condition variable wakes them, which
//     is not promised to be FIFO.
//   * DEADLINES, TWICE. A request's deadline is checked at admission
//     (an already-expired request is refused with kDeadlineExceeded
//     before it costs anything) and AGAIN when a waiting caller gets its
//     slot (a request that expired while waiting is answered
//     kDeadlineExceeded without touching a snapshot). Waits are not
//     timed: the second check runs when a slot frees, never on a timer.
//     Snapshot work is only ever spent on requests that can still meet
//     their deadline.
//   * ACCOUNTED, EXACTLY. Every request ends in exactly one of
//     {completed, shed, expired-at-admission, expired-in-queue}; the
//     counters reconcile to the request total and snapshot_pins ==
//     completed once the service is idle (the "zero snapshot work for
//     refused requests" proof the saturation test asserts).
//   * NEVER DEAD. Health() answers without waiting for a slot — during
//     overload or store faults it still reports the service state: the
//     server's degraded flag (consecutive refresh failures past the
//     threshold, pinned epoch still serving), epoch age, backoff
//     position, and the admission counters.
//
// Time is injected (common/clock.h): deadlines, epoch age and the
// backoff schedule all read the server's clock, so every path above is
// unit-testable with a FakeClock and zero sleeps. Nothing waits in real
// time on the clock.
#ifndef EEP_SERVE_SERVICE_H_
#define EEP_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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
/// == requests received (stopped-service refusals excepted). All six are
/// read under the gate's lock, so one sample is consistent: at any
/// instant completed + expired_in_queue <= admitted <= that sum +
/// queue_capacity + num_workers, and completed <= snapshot_pins <=
/// completed + num_workers.
struct ServiceStats {
  /// Passed the gate: took a slot or a waiting place.
  uint64_t admitted = 0;
  uint64_t completed = 0;    ///< Ran against a snapshot.
  uint64_t shed = 0;         ///< Refused at admission: no waiting place.
  uint64_t expired_at_admission = 0;  ///< Deadline already past on arrival.
  uint64_t expired_in_queue = 0;  ///< Deadline passed while waiting.
  /// Snapshots pinned for execution, counted as a slot is taken. Equal to
  /// completed once no request is running: shed and expired requests
  /// never touch one.
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
  /// Waiting places: requests admitted while every slot is busy (or the
  /// gate is closed) wait here. Every place taken => shed. Must be >= 1.
  size_t queue_capacity = 128;
  /// The concurrency limit: at most this many requests run at once, each
  /// on its caller's thread (the service starts no threads). Must be >= 1.
  int num_workers = 2;
  /// When true, the gate starts closed and nothing runs until Resume().
  /// Admission still runs — overload tests use this to fill the waiting
  /// places deterministically (without it, shedding depends on
  /// scheduling).
  bool start_suspended = false;
};

/// \brief The request front. Thread-safe: any number of threads may call
/// Lookup/TopK/Health/stats concurrently; requests run on and block the
/// calling thread until their outcome (which is why admitted latency
/// stays bounded — there is no fire-and-forget buffering anywhere).
class Service {
 public:
  /// `server` must outlive the service.
  static Result<std::unique_ptr<Service>> Create(Server* server,
                                                 ServiceOptions options = {});

  /// Stops admission and opens the gate, then returns once no caller
  /// holds a slot or a waiting place: waiting callers still run, each
  /// with its deadline re-checked.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Blocking point lookup: admitted, run on the calling thread against
  /// one pinned snapshot, answered verbatim. kResourceExhausted when shed,
  /// kDeadlineExceeded when expired (either check), kNotFound/
  /// kInvalidArgument from the lookup itself, kFailedPrecondition after
  /// shutdown began.
  Result<std::string> Lookup(const LookupRequest& request);

  /// Blocking top-k ranking; same admission semantics as Lookup.
  Result<std::vector<RankedCell>> TopK(const TopKRequest& request);

  /// Never waits for a slot, never sheds, no deadline: one consistent
  /// health sample even (especially) under overload or store faults.
  ServiceHealth Health(const HealthRequest& request = {}) const;

  ServiceStats stats() const;

  /// The service clock's current time; deadlines are absolute in this
  /// domain.
  int64_t NowMs() const;
  /// NowMs() + budget_ms, the usual way to stamp a request's deadline.
  int64_t DeadlineAfterMs(int64_t budget_ms) const;

  /// Opens the gate of a start_suspended service. Idempotent.
  void Resume();

 private:
  Service(Server* server, ServiceOptions options);

  /// The gate, in order: the deadline check, the stop check, a free slot
  /// (gate open, nobody waiting), a waiting place, else shed. A waiter
  /// re-checks its deadline once a slot is free for it. OK means the
  /// caller holds a slot and counts as a snapshot pin.
  Status Admit(int64_t deadline_ms);
  /// Counts the caller's request completed and frees its slot. The
  /// caller must touch no member afterwards: the destructor may run.
  void FreeSlot();
  /// With mu_ held, when a slot is free: wakes one waiter if any, or
  /// everyone (the destructor included) once the service is stopping.
  void PassSlotOnLocked();
  /// Admit, then `body` on the calling thread against a pinned snapshot,
  /// then FreeSlot.
  template <typename T, typename Body>
  Result<T> Run(int64_t deadline_ms, Body body);

  Server* const server_;
  const ServiceOptions options_;
  Clock* const clock_;  ///< The server's clock.

  /// Guards everything below.
  mutable std::mutex mu_;
  /// Wakes waiters (a freed slot, Resume, shutdown) and the destructor.
  std::condition_variable cv_;
  int running_ = 0;     ///< Callers holding a slot.
  size_t waiting_ = 0;  ///< Callers holding a waiting place.
  bool open_;           ///< False until Resume() when start_suspended.
  bool stop_ = false;
  ServiceStats stats_;
};

}  // namespace eep::serve

#endif  // EEP_SERVE_SERVICE_H_
