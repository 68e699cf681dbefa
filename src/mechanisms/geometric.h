// Integer-valued smooth-sensitivity release (extension, not in the paper):
// the two-sided geometric ("discrete Laplace") analogue of Algorithm 3.
// Useful when a release must be integral; included as the future-work
// style extension and exercised by the ablation bench.
#ifndef EEP_MECHANISMS_GEOMETRIC_H_
#define EEP_MECHANISMS_GEOMETRIC_H_

#include "mechanisms/mechanism.h"
#include "privacy/parameters.h"

namespace eep::mechanisms {

/// \brief n + two-sided geometric noise, scaled like Smooth Laplace.
/// Approximate (alpha, epsilon, delta)-ER-EE privacy; the integer grid
/// makes the guarantee conservative (noise is stochastically at least as
/// spread as the continuous mechanism it mirrors).
class GeometricMechanism : public CountMechanism {
 public:
  /// Same feasibility region as Smooth Laplace.
  static Result<GeometricMechanism> Create(privacy::PrivacyParams params);

  std::string name() const override { return "Smooth Geometric"; }

  /// Hoists the per-cell parameter derivation (no exp/log per parameter:
  /// the inverse transform uses 1/ln(p) = -scale directly) and draws both
  /// geometric legs from one bulk uniform fill, two uniforms per cell.
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;

  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

  /// The geometric parameter p = exp(-1/scale) used for a given cell scale.
  /// OutOfRange when p degenerates to 1 (huge smooth sensitivity): the
  /// sampler and the error formula are unbounded there, and the
  /// mechanism.h contract maps unbounded values to an error status.
  /// ReleaseBatch refuses such a cell with the same status.
  Result<double> GeometricParameter(const CellQuery& cell) const;

 private:
  GeometricMechanism(privacy::PrivacyParams params, double b)
      : params_(params), b_(b) {}

  privacy::PrivacyParams params_;
  double b_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_GEOMETRIC_H_
