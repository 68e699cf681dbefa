// Algorithm 2 of the paper: the Smooth Gamma mechanism.
//
//   eta   ~  h(z) ∝ 1/(1 + z^4)
//   eps2  <- 5 ln(1+alpha)         (dilation budget, Lemma 8.6 with gamma=4)
//   eps1  <- eps - eps2            (sliding budget; must be > 0)
//   n~    <- n + S*_{v, eps2/5}(x) / (eps1/5) · eta
//
// with S*_{v,b}(x) = max(x_v·alpha, 1), the b-smooth sensitivity of the
// cell count (Lemma 8.5). Requires 1 + alpha < e^{eps/5} so eps1 > 0.
// Pure (delta = 0) (alpha, eps)-ER-EE privacy; unbiased with expected L1
// error O(x_v·alpha/eps + 1/eps) (Lemma 8.8).
#ifndef EEP_MECHANISMS_SMOOTH_GAMMA_H_
#define EEP_MECHANISMS_SMOOTH_GAMMA_H_

#include "common/distributions.h"
#include "mechanisms/mechanism.h"
#include "privacy/parameters.h"

namespace eep::mechanisms {

/// \brief The Smooth Gamma mechanism (Algorithm 2).
class SmoothGammaMechanism : public CountMechanism {
 public:
  /// Fails unless 1 + alpha < e^{epsilon/5} (and basic validity).
  static Result<SmoothGammaMechanism> Create(privacy::PrivacyParams params);

  std::string name() const override { return "Smooth Gamma"; }

  double epsilon1() const { return eps1_; }
  double epsilon2() const { return eps2_; }

  /// Noise multiplier for a cell: S*(x_v) / (eps1/5).
  Result<double> NoiseScale(const CellQuery& cell) const;

  /// Hoists validation and noise-scale derivation, draws all uniforms in
  /// one fill, and inverts the GeneralizedCauchy4 CDF through the batched
  /// Newton/bisection hybrid (QuantileN, ~5 CDF evaluations per cell).
  /// Zero uniforms are clamped instead of redrawn, so stream consumption
  /// is exactly one draw per cell.
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;

  /// Exact expected |error| = NoiseScale · E|eta| with E|eta| = sqrt(2)/2.
  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

 private:
  SmoothGammaMechanism(privacy::PrivacyParams params, double eps1,
                       double eps2)
      : params_(params), eps1_(eps1), eps2_(eps2) {}

  privacy::PrivacyParams params_;
  double eps1_;
  double eps2_;
  GeneralizedCauchy4 noise_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_SMOOTH_GAMMA_H_
