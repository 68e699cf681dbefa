// Algorithm 3 of the paper: the Smooth Laplace mechanism —
// (alpha, epsilon, delta)-ER-EE privacy via smooth sensitivity with
// Laplace(1) noise (Lemma 9.1 admissibility):
//
//   eta  ~  Laplace(1)
//   b    <- epsilon / (2 ln(1/delta))
//   n~   <- n + S*_{v,b}(x) / (epsilon/2) · eta
//
// Requires 1 + alpha <= e^b (else the smooth sensitivity is unbounded,
// Lemma 8.5) — equivalently epsilon >= 2 ln(1/delta) ln(1+alpha), the
// Table 2 minimum. The error does not depend on delta; delta only gates
// which (alpha, epsilon) pairs are feasible.
#ifndef EEP_MECHANISMS_SMOOTH_LAPLACE_H_
#define EEP_MECHANISMS_SMOOTH_LAPLACE_H_

#include "mechanisms/mechanism.h"
#include "privacy/parameters.h"

namespace eep::mechanisms {

/// \brief The Smooth Laplace mechanism (Algorithm 3).
class SmoothLaplaceMechanism : public CountMechanism {
 public:
  /// Fails unless delta in (0,1) and 1+alpha <= e^{eps/(2 ln(1/delta))}.
  static Result<SmoothLaplaceMechanism> Create(privacy::PrivacyParams params);

  std::string name() const override { return "Smooth Laplace"; }

  /// Smoothing parameter b = epsilon / (2 ln(1/delta)).
  double smoothing() const { return b_; }

  /// Noise multiplier for a cell: S*(x_v) / (epsilon/2).
  Result<double> NoiseScale(const CellQuery& cell) const;

  /// Validates every cell and derives its noise scale (NoiseScale's value;
  /// (alpha, b) feasibility was settled at Create, so no per-cell exp
  /// remains), then fills unit-Laplace noise in bulk, one uniform per cell.
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;

  /// Exact expected |error| = NoiseScale (E|Laplace(1)| = 1).
  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

 private:
  SmoothLaplaceMechanism(privacy::PrivacyParams params, double b)
      : params_(params), b_(b) {}

  privacy::PrivacyParams params_;
  double b_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_SMOOTH_LAPLACE_H_
