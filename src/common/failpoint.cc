#include "common/failpoint.h"

#include <cstdio>
#include <cstdlib>

namespace eep {
namespace {

/// \brief One inventoried site: name + whether it mutates durable state.
struct FailpointSite {
  const char* name;
  bool write_side;
};

// The canonical failpoint inventory. Every EEP_FAILPOINT / Consult site in
// the file and store layers appears here; docs/ARCHITECTURE.md documents
// each name and tools/check_docs.py keeps the two lists equal. Keep one
// entry per line — the docs checker parses this block literally.
constexpr FailpointSite kFailpointInventory[] = {
    {"file/open-write", true},
    {"file/append", true},
    {"file/sync", true},
    {"file/close", true},
    {"file/truncate", true},
    {"file/remove", true},
    {"file/sync-dir", true},
    {"file/open-read", false},
    {"file/read", false},
    {"store/segment-write", true},
    {"store/segment-sync", true},
    {"store/wal-append", true},
    {"store/wal-sync", true},
};

}  // namespace

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

FailpointRegistry::FailpointRegistry() {
  for (const FailpointSite& site : kFailpointInventory) {
    sites_[site.name].write_side = site.write_side;
  }
}

std::vector<std::string> FailpointRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, state] : sites_) {
    (void)state;
    names.push_back(name);
  }
  return names;
}

bool FailpointRegistry::IsRegistered(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_.count(name) > 0;
}

bool FailpointRegistry::IsWriteSide(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(name);
  return it != sites_.end() && it->second.write_side;
}

void FailpointRegistry::Arm(const std::string& name, FailpointSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    // A typo'd site name would silently inject nothing and make a crash
    // test vacuous; fail loudly instead.
    std::fprintf(stderr, "FailpointRegistry::Arm: unknown site '%s'\n",
                 name.c_str());
    std::abort();
  }
  it->second.armed = true;
  it->second.spec = std::move(spec);
  it->second.hits = 0;
  RefreshActiveLocked();
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : sites_) {
    (void)name;
    state.armed = false;
    state.hits = 0;
  }
  crashed_ = false;
  crash_message_.clear();
  RefreshActiveLocked();
}

void FailpointRegistry::EnableCounting(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = on;
  for (auto& [name, state] : sites_) {
    (void)name;
    state.hits = 0;
  }
  RefreshActiveLocked();
}

int FailpointRegistry::HitCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.hits;
}

bool FailpointRegistry::InCrash() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

FailpointDecision FailpointRegistry::Consult(const char* name) {
  FailpointDecision decision;
  if (!active_.load(std::memory_order_relaxed)) return decision;

  std::lock_guard<std::mutex> lock(mu_);
  if (!counting_ && !crashed_) {
    // Re-check under the lock: another thread may have disarmed between
    // the fast-path load and here.
    bool any_armed = false;
    for (const auto& [site, state] : sites_) {
      (void)site;
      if (state.armed) {
        any_armed = true;
        break;
      }
    }
    if (!any_armed) return decision;
  }
  // Sites outside the inventory self-register as write-side; tests can
  // use ad-hoc names, but the canonical list stays kFailpointInventory.
  SiteState& state = sites_[name];
  ++state.hits;

  if (crashed_ && state.write_side) {
    decision.fire = true;
    decision.fault = FailpointFault::kCrash;
    decision.status = Status::IOError(
        "simulated crash (" + crash_message_ + "): no further writes");
    return decision;
  }
  if (!state.armed || state.hits != state.spec.hit) return decision;

  decision.fire = true;
  decision.fault = state.spec.fault;
  decision.partial_bytes = state.spec.partial_bytes;
  std::string msg = std::string(name) + ": " + state.spec.message;
  switch (state.spec.fault) {
    case FailpointFault::kCrash:
      crashed_ = true;
      crash_message_ = name;
      RefreshActiveLocked();
      decision.status = Status::IOError("simulated crash at " + msg);
      break;
    case FailpointFault::kShortWrite:
      decision.status = Status::IOError("injected short write at " + msg);
      break;
    case FailpointFault::kError:
    default:
      switch (state.spec.code) {
        case StatusCode::kIOError:
          decision.status = Status::IOError("injected at " + msg);
          break;
        case StatusCode::kResourceExhausted:
          decision.status = Status::ResourceExhausted("injected at " + msg);
          break;
        default:
          decision.status = Status::Internal("injected at " + msg);
          break;
      }
      break;
  }
  return decision;
}

void FailpointRegistry::RefreshActiveLocked() {
  bool active = counting_ || crashed_;
  if (!active) {
    for (const auto& [name, state] : sites_) {
      (void)name;
      if (state.armed) {
        active = true;
        break;
      }
    }
  }
  active_.store(active, std::memory_order_relaxed);
}

}  // namespace eep
