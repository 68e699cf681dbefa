#include "privacy/accountant.h"

#include <cmath>
#include <utility>

#include "common/text_table.h"

namespace eep::privacy {

Result<PrivacyAccountant> PrivacyAccountant::Create(double alpha,
                                                    double epsilon_budget,
                                                    double delta_budget,
                                                    AdversaryModel model) {
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    return Status::InvalidArgument("alpha must be finite and >= 0");
  }
  if (!(epsilon_budget > 0.0)) {
    return Status::InvalidArgument("epsilon budget must be > 0");
  }
  if (!(delta_budget >= 0.0 && delta_budget < 1.0)) {
    return Status::InvalidArgument("delta budget must be in [0, 1)");
  }
  return PrivacyAccountant(alpha, epsilon_budget, delta_budget, model);
}

Status PrivacyAccountant::Charge(const std::string& description,
                                 double epsilon, double delta) {
  if (!(epsilon > 0.0) || !(delta >= 0.0)) {
    return Status::InvalidArgument("charge must have epsilon > 0, delta >= 0");
  }
  constexpr double kSlack = 1e-12;  // tolerate float accumulation
  if (spent_epsilon_ + epsilon > epsilon_budget_ + kSlack) {
    return Status::ResourceExhausted(
        "privacy budget exhausted: spent " + std::to_string(spent_epsilon_) +
        " + " + std::to_string(epsilon) + " > " +
        std::to_string(epsilon_budget_));
  }
  if (spent_delta_ + delta > delta_budget_ + kSlack) {
    return Status::ResourceExhausted(
        "delta budget exhausted: the charge costs " + FormatDouble(delta, 6) +
        " with " + FormatDouble(delta_budget_ - spent_delta_, 6) +
        " remaining");
  }
  spent_epsilon_ += epsilon;
  spent_delta_ += delta;
  ledger_.push_back({description, epsilon, delta});
  return Status::OK();
}

Status PrivacyAccountant::ChargeSequential(const std::string& description,
                                           double epsilon, double delta) {
  return Charge(description, epsilon, delta);
}

namespace {

/// (epsilon, delta) actually charged for one marginal under `model` — the
/// single place the weak-model d-multiplier lives.
std::pair<double, double> MarginalTotals(AdversaryModel model, double epsilon,
                                         int64_t worker_domain_size,
                                         double delta) {
  if (model == AdversaryModel::kWeak && worker_domain_size > 1) {
    // Thm. 7.5 fails for weak privacy: cells that partition workers of the
    // SAME establishment compose sequentially, costing d * epsilon.
    return {epsilon * static_cast<double>(worker_domain_size),
            delta * static_cast<double>(worker_domain_size)};
  }
  return {epsilon, delta};
}

}  // namespace

Status PrivacyAccountant::ChargeMarginalWorkload(
    const std::vector<MarginalCharge>& marginals) {
  if (marginals.empty()) {
    return Status::InvalidArgument("workload charge needs >= 1 marginal");
  }
  // Validate and total first; apply only when the WHOLE workload fits, so a
  // refusal leaves the ledger untouched.
  double epsilon_sum = 0.0;
  double delta_sum = 0.0;
  for (const MarginalCharge& m : marginals) {
    if (m.worker_domain_size < 1) {
      return Status::InvalidArgument("worker_domain_size must be >= 1");
    }
    if (!(m.epsilon > 0.0) || !(m.delta >= 0.0)) {
      return Status::InvalidArgument(
          "charge must have epsilon > 0, delta >= 0");
    }
    const auto [total_epsilon, total_delta] =
        MarginalTotals(model_, m.epsilon, m.worker_domain_size, m.delta);
    epsilon_sum += total_epsilon;
    delta_sum += total_delta;
  }
  constexpr double kSlack = 1e-12;  // tolerate float accumulation
  if (spent_epsilon_ + epsilon_sum > epsilon_budget_ + kSlack) {
    return Status::ResourceExhausted(
        "privacy budget exhausted: the workload costs " +
        std::to_string(epsilon_sum) + " with " +
        std::to_string(epsilon_budget_ - spent_epsilon_) +
        " remaining; nothing was charged");
  }
  if (spent_delta_ + delta_sum > delta_budget_ + kSlack) {
    return Status::ResourceExhausted(
        "delta budget exhausted: the workload costs " +
        FormatDouble(delta_sum, 6) + " with " +
        FormatDouble(delta_budget_ - spent_delta_, 6) +
        " remaining; nothing was charged");
  }
  for (const MarginalCharge& m : marginals) {
    const auto [total_epsilon, total_delta] =
        MarginalTotals(model_, m.epsilon, m.worker_domain_size, m.delta);
    spent_epsilon_ += total_epsilon;
    spent_delta_ += total_delta;
    ledger_.push_back({m.description, total_epsilon, total_delta});
  }
  return Status::OK();
}

}  // namespace eep::privacy
