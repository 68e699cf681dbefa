// Algorithm 1 of the paper: the Log-Laplace mechanism.
//
//   gamma  <- 1/alpha
//   l      <- ln(n + gamma)
//   eta    ~  Laplace(2 ln(1+alpha) / epsilon)
//   n~     <- e^{l + eta} - gamma
//
// The log transform turns the unbounded multiplicative sensitivity of a
// count under alpha-neighbors into a bounded additive one: ln(n + 1/alpha)
// changes by at most ln(1+alpha) between neighbors (both for the
// (1+alpha)-scaling move and the +1-worker move), so Laplace noise with
// scale 2 ln(1+alpha)/epsilon gives (alpha, epsilon)-ER-EE privacy
// (Theorem 8.1).
//
// The mechanism is biased (Lemma 8.2): E[n~] + gamma = (n + gamma)/(1 -
// lambda^2) for lambda = 2 ln(1+alpha)/epsilon < 1, and the expectation is
// unbounded for lambda >= 1. An optional bias-correction switch multiplies
// (n~ + gamma) by (1 - lambda^2) — an ablation the paper does not apply.
#ifndef EEP_MECHANISMS_LOG_LAPLACE_H_
#define EEP_MECHANISMS_LOG_LAPLACE_H_

#include "mechanisms/mechanism.h"
#include "privacy/parameters.h"

namespace eep::mechanisms {

/// \brief The Log-Laplace mechanism (Algorithm 1).
class LogLaplaceMechanism : public CountMechanism {
 public:
  /// Fails unless alpha > 0 and epsilon > 0. `debias` enables the
  /// Lemma 8.2 correction (only valid when lambda < 1).
  static Result<LogLaplaceMechanism> Create(privacy::PrivacyParams params,
                                            bool debias = false);

  std::string name() const override {
    return debias_ ? "Log-Laplace (debiased)" : "Log-Laplace";
  }

  /// lambda = 2 ln(1+alpha)/epsilon, the Laplace scale on the log count.
  double lambda() const { return lambda_; }
  /// gamma = 1/alpha, the count offset.
  double gamma() const { return gamma_; }
  /// True when Lemma 8.2 gives a finite expectation (lambda < 1).
  bool HasBoundedExpectation() const { return lambda_ < 1.0; }

  /// Validates all cells, fills Laplace(lambda) noise in bulk (one uniform
  /// per cell) and scales each shifted count by exp(eta).
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;

  /// Upper bound on expected |error| from the Theorem 8.3 squared-relative-
  /// error bound via Jensen: E|err| <= (n + gamma) * sqrt(Erel_bound).
  /// Fails when lambda >= 1/2 (the bound does not apply).
  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

  /// The Theorem 8.3 bound on E[(x - x~)^2 / x^2]; fails for lambda >= 1/2.
  Result<double> SquaredRelativeErrorBound() const;

 private:
  LogLaplaceMechanism(privacy::PrivacyParams params, double lambda,
                      bool debias)
      : params_(params),
        lambda_(lambda),
        gamma_(1.0 / params.alpha),
        debias_(debias) {}

  privacy::PrivacyParams params_;
  double lambda_;
  double gamma_;
  bool debias_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_LOG_LAPLACE_H_
