#include "serve/service.h"

#include <utility>

namespace eep::serve {

Result<std::unique_ptr<Service>> Service::Create(Server* server,
                                                 ServiceOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("Service::Create: server is null");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "Service::Create: queue_capacity must be >= 1");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        "Service::Create: num_workers must be >= 1");
  }
  return std::unique_ptr<Service>(new Service(server, std::move(options)));
}

Service::Service(Server* server, ServiceOptions options)
    : server_(server),
      options_(std::move(options)),
      clock_(server->clock()),
      open_(!options_.start_suspended) {}

Service::~Service() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  // Shutdown opens a closed gate: waiting callers are blocked on their
  // outcomes and MUST get one (deadline re-check included) before the
  // members go away.
  open_ = true;
  cv_.notify_all();
  cv_.wait(lock, [this] { return running_ == 0 && waiting_ == 0; });
}

int64_t Service::NowMs() const { return clock_->NowMs(); }

int64_t Service::DeadlineAfterMs(int64_t budget_ms) const {
  return clock_->NowMs() + budget_ms;
}

void Service::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }
  cv_.notify_all();
}

Status Service::Admit(int64_t deadline_ms) {
  // Deadline gate first: an expired request is refused before it can
  // displace viable work, and without any snapshot being pinned.
  const bool expired = deadline_ms > 0 && clock_->NowMs() >= deadline_ms;
  std::unique_lock<std::mutex> lock(mu_);
  if (expired) {
    ++stats_.expired_at_admission;
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  if (stop_) {
    return Status::FailedPrecondition("service is shutting down");
  }
  // A new arrival never takes a slot ahead of a waiting caller.
  const bool must_wait =
      !open_ || running_ == options_.num_workers || waiting_ > 0;
  if (must_wait && waiting_ >= options_.queue_capacity) {
    ++stats_.shed;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.queue_capacity) +
        " waiting)");
  }
  ++stats_.admitted;
  if (must_wait) {
    ++waiting_;
    cv_.wait(lock,
             [this] { return open_ && running_ < options_.num_workers; });
    --waiting_;
    // The second deadline check: a request that expired while waiting is
    // answered without pinning a snapshot, and the free slot goes on to
    // the next waiter — under overload the slots go only to requests that
    // can still meet their deadline.
    if (deadline_ms > 0 && clock_->NowMs() >= deadline_ms) {
      ++stats_.expired_in_queue;
      PassSlotOnLocked();
      return Status::DeadlineExceeded("deadline expired in queue");
    }
  }
  ++running_;
  ++stats_.snapshot_pins;
  return Status::OK();
}

void Service::FreeSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.completed;
  --running_;
  PassSlotOnLocked();
}

void Service::PassSlotOnLocked() {
  // Notified under mu_: once the caller releases it, the destructor may
  // run and the condition variable may be gone.
  if (stop_) {
    cv_.notify_all();
  } else if (waiting_ > 0) {
    cv_.notify_one();
  }
}

template <typename T, typename Body>
Result<T> Service::Run(int64_t deadline_ms, Body body) {
  EEP_RETURN_NOT_OK(Admit(deadline_ms));
  // Frees the slot after the answer is built, on every exit path.
  struct SlotGuard {
    Service* service;
    ~SlotGuard() { service->FreeSlot(); }
  } slot{this};
  return body(*server_->snapshot());
}

Result<std::string> Service::Lookup(const LookupRequest& request) {
  return Run<std::string>(
      request.deadline_ms,
      [&request](const Snapshot& snap) -> Result<std::string> {
        EEP_ASSIGN_OR_RETURN(const ServedTable* served,
                             snap.Find(request.table));
        return served->LookupCell(request.values);
      });
}

Result<std::vector<RankedCell>> Service::TopK(const TopKRequest& request) {
  return Run<std::vector<RankedCell>>(
      request.deadline_ms,
      [&request](const Snapshot& snap) -> Result<std::vector<RankedCell>> {
        EEP_ASSIGN_OR_RETURN(const ServedTable* served,
                             snap.Find(request.table));
        return served->TopK(request.k);
      });
}

ServiceHealth Service::Health(const HealthRequest&) const {
  ServiceHealth health;
  health.server = server_->health();
  health.state = health.server.degraded ? ServiceState::kDegraded
                                        : ServiceState::kHealthy;
  health.stats = stats();
  return health;
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace eep::serve
