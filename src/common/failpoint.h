// Deterministic fault injection for the file and store layers.
//
// Every fallible I/O site in common/file.cc and store/store.cc consults a
// NAMED failpoint before doing real work. In production nothing is armed
// and a consultation is one relaxed atomic load. Tests arm a site to
// inject, at the k-th consultation:
//
//   * an error Status (EIO / ENOSPC / ... style messages) with nothing
//     written,
//   * a SHORT WRITE: only the first `partial_bytes` of the payload reach
//     the file before the error surfaces — the torn-tail case crash
//     recovery must handle,
//   * a simulated CRASH: this and every later write-side consultation
//     fails, modeling power loss mid-protocol. Read-side sites keep
//     working, so a test can "reboot" by disarming and reopening.
//
// The inventory of registered sites is static (kFailpointInventory in
// failpoint.cc): the crash-matrix test enumerates it to prove recovery
// for every site x hit count, and tools/check_docs.py cross-checks it
// against the failpoint table in docs/ARCHITECTURE.md.
#ifndef EEP_COMMON_FAILPOINT_H_
#define EEP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace eep {

/// \brief What an armed failpoint does when its hit count is reached.
enum class FailpointFault {
  kError,       ///< Return an injected error; the operation does nothing.
  kShortWrite,  ///< Write only `partial_bytes`, then return an error.
  kCrash,       ///< Fail this and every later write-side consultation.
};

/// \brief One armed fault: fire `fault` on the `hit`-th consultation.
struct FailpointSpec {
  FailpointFault fault = FailpointFault::kError;
  /// 1-based consultation index at which the fault fires (before then the
  /// site behaves normally).
  int hit = 1;
  /// Status code of the injected error (kIOError for disk faults).
  StatusCode code = StatusCode::kIOError;
  /// Appended to the injected status message, e.g. "ENOSPC".
  std::string message = "injected fault";
  /// kShortWrite: bytes of the payload actually written before the error.
  size_t partial_bytes = 0;
};

/// \brief What a consultation told the site to do.
struct FailpointDecision {
  bool fire = false;
  FailpointFault fault = FailpointFault::kError;
  size_t partial_bytes = 0;
  Status status;  ///< The error to surface when fire is true.
};

/// \brief Process-wide registry of named fault-injection sites.
///
/// Thread-safe: arming, disarming and consultation take a mutex, but the
/// disarmed-and-not-counting fast path is a single relaxed atomic load so
/// production I/O pays nothing measurable.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  /// Statically inventoried site names, sorted. Consultations from sites
  /// outside the inventory register themselves on first hit (useful in
  /// tests), but the canonical list is the inventory.
  std::vector<std::string> Names() const;
  bool IsRegistered(const std::string& name) const;
  /// True for sites that mutate durable state (crash stops them); read
  /// sites survive a simulated crash.
  bool IsWriteSide(const std::string& name) const;

  /// Arms `name`; replaces any previous spec and resets its hit counter.
  /// The name must be in the inventory (aborts otherwise — a typo in a
  /// test must not silently inject nothing).
  void Arm(const std::string& name, FailpointSpec spec);
  /// Disarms every site, clears the crash state and all hit counters.
  void DisarmAll();

  /// When enabled, every consultation is counted even when nothing is
  /// armed — the crash-matrix test records a clean run's per-site hit
  /// counts to know which (site, k) pairs exist.
  void EnableCounting(bool on);
  /// Consultations of `name` since the last DisarmAll/EnableCounting.
  int HitCount(const std::string& name) const;

  /// True once a kCrash fault has fired (until DisarmAll).
  bool InCrash() const;

  /// Site-side entry point; `name` must outlive the call (string literal).
  FailpointDecision Consult(const char* name);

 private:
  FailpointRegistry();

  struct SiteState {
    bool armed = false;
    FailpointSpec spec;
    int hits = 0;
    bool write_side = true;
  };

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  /// Fast path: true while any site is armed, counting is on, or a crash
  /// is in effect.
  std::atomic<bool> active_{false};
  bool counting_ = false;
  bool crashed_ = false;
  std::string crash_message_;

  void RefreshActiveLocked();
};

/// Consults `site` and propagates an injected plain-error/crash Status.
/// Sites that need short-write semantics call Consult directly instead.
#define EEP_FAILPOINT(site)                                          \
  do {                                                               \
    ::eep::FailpointDecision _fp_decision =                          \
        ::eep::FailpointRegistry::Instance().Consult(site);          \
    if (_fp_decision.fire) return _fp_decision.status;               \
  } while (0)

}  // namespace eep

#endif  // EEP_COMMON_FAILPOINT_H_
