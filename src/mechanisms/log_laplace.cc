#include "mechanisms/log_laplace.h"

#include <cmath>

#include "common/distributions.h"

namespace eep::mechanisms {

Result<LogLaplaceMechanism> LogLaplaceMechanism::Create(
    privacy::PrivacyParams params, bool debias) {
  EEP_ASSIGN_OR_RETURN(double lambda, privacy::LogLaplaceLambda(params));
  if (debias && lambda >= 1.0) {
    return Status::InvalidArgument(
        "bias correction needs lambda < 1 (expectation unbounded otherwise)");
  }
  return LogLaplaceMechanism(params, lambda, debias);
}

Status LogLaplaceMechanism::ReleaseBatch(const std::vector<CellQuery>& cells,
                                         Rng& rng,
                                         std::vector<double>* out) const {
  const size_t n = cells.size();
  for (const CellQuery& cell : cells) {
    if (cell.true_count < 0) {
      return Status::InvalidArgument("count must be >= 0");
    }
  }
  EEP_ASSIGN_OR_RETURN(LaplaceDistribution noise,
                       LaplaceDistribution::Create(lambda_));
  const size_t base = out->size();
  out->resize(base + n);
  double* dst = out->data() + base;
  noise.SampleN(rng, dst, n);
  const double debias_factor = 1.0 - lambda_ * lambda_;
  for (size_t i = 0; i < n; ++i) {
    const double count = static_cast<double>(cells[i].true_count);
    // Algorithm 1's exp(log(n+gamma) + eta), written (n+gamma)·exp(eta) to
    // save the log.
    double released = (count + gamma_) * std::exp(dst[i]) - gamma_;
    if (debias_) {
      // Lemma 8.2: E[n~ + gamma] = (n + gamma)/(1 - lambda^2); rescaling
      // by (1 - lambda^2) restores unbiasedness of the shifted value.
      released = (released + gamma_) * debias_factor - gamma_;
    }
    dst[i] = released;
  }
  return Status::OK();
}

Result<double> LogLaplaceMechanism::SquaredRelativeErrorBound() const {
  if (!(lambda_ < 0.5)) {
    return Status::FailedPrecondition(
        "Theorem 8.3 bound requires lambda < 1/2");
  }
  const double l2 = lambda_ * lambda_;
  return (2.0 * l2 + 4.0 * l2 * l2) * (1.0 + gamma_) * (1.0 + gamma_) /
         ((1.0 - 4.0 * l2) * (1.0 - l2));
}

Result<double> LogLaplaceMechanism::ExpectedL1Error(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(double erel, SquaredRelativeErrorBound());
  const double n = static_cast<double>(cell.true_count);
  // Jensen: E|x - x~| <= x * sqrt(E[(x - x~)^2 / x^2]). For x = 0 fall back
  // to the shifted scale gamma.
  const double base = n > 0.0 ? n : gamma_;
  return base * std::sqrt(erel);
}

}  // namespace eep::mechanisms
