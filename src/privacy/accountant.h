// Privacy-budget accounting for (alpha, epsilon, delta)-ER-EE privacy:
// sequential composition (Thm. 7.3), parallel composition across disjoint
// establishments (Thm. 7.4) and across disjoint workers under STRONG
// privacy only (Thm. 7.5), and the weak-privacy surcharge d·epsilon for
// marginals containing worker attributes (Section 8).
#ifndef EEP_PRIVACY_ACCOUNTANT_H_
#define EEP_PRIVACY_ACCOUNTANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "privacy/parameters.h"

namespace eep::privacy {

/// \brief One entry in the accountant's ledger.
struct LedgerEntry {
  std::string description;
  double epsilon_charged = 0.0;
  double delta_charged = 0.0;
};

/// \brief Tracks cumulative privacy loss against a fixed budget.
///
/// All releases must share the same alpha and adversary model; mixing
/// models in one ledger is rejected because weak and strong guarantees do
/// not compose with each other in the paper's framework.
class PrivacyAccountant {
 public:
  /// Creates an accountant for a total (epsilon, delta) budget at the given
  /// alpha and adversary model.
  static Result<PrivacyAccountant> Create(double alpha, double epsilon_budget,
                                          double delta_budget,
                                          AdversaryModel model);

  double alpha() const { return alpha_; }
  AdversaryModel model() const { return model_; }
  double epsilon_budget() const { return epsilon_budget_; }
  double spent_epsilon() const { return spent_epsilon_; }
  double spent_delta() const { return spent_delta_; }
  double remaining_epsilon() const { return epsilon_budget_ - spent_epsilon_; }

  const std::vector<LedgerEntry>& ledger() const { return ledger_; }

  /// Charges one sequentially composed release (Thm. 7.3). Fails with
  /// ResourceExhausted when the budget would be exceeded; the ledger is
  /// unchanged on failure.
  Status ChargeSequential(const std::string& description, double epsilon,
                          double delta = 0.0);

  /// \brief One marginal of an atomically charged workload.
  struct MarginalCharge {
    std::string description;
    double epsilon = 0.0;
    int64_t worker_domain_size = 1;
    double delta = 0.0;
  };

  /// Charges a whole workload of marginals atomically: either every
  /// marginal is charged (one ledger entry each) or — when the combined
  /// charge would exceed either budget — nothing is and ResourceExhausted
  /// is returned. Release runners use this so a refused workload never
  /// spends budget on tables the caller does not receive. A marginal
  /// released with per-cell budget `epsilon` is charged:
  ///  * Strong model: cells parallel-compose across both establishments
  ///    (Thm. 7.4) and workers (Thm. 7.5) -> total charge = epsilon.
  ///  * Weak model: parallel composition across workers does NOT hold
  ///    (Thm. 7.5), so a marginal containing worker attributes costs
  ///    worker_domain_size x epsilon; establishment-only marginals still
  ///    parallel-compose.
  /// A single marginal is the one-entry workload.
  Status ChargeMarginalWorkload(const std::vector<MarginalCharge>& marginals);

 private:
  PrivacyAccountant(double alpha, double eps, double delta,
                    AdversaryModel model)
      : alpha_(alpha),
        epsilon_budget_(eps),
        delta_budget_(delta),
        model_(model) {}

  Status Charge(const std::string& description, double epsilon, double delta);

  double alpha_;
  double epsilon_budget_;
  double delta_budget_;
  AdversaryModel model_;
  double spent_epsilon_ = 0.0;
  double spent_delta_ = 0.0;
  std::vector<LedgerEntry> ledger_;
};

}  // namespace eep::privacy

#endif  // EEP_PRIVACY_ACCOUNTANT_H_
