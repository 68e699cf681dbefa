#include "mechanisms/smooth_laplace.h"

#include <algorithm>
#include <cmath>

#include "common/distributions.h"
#include "privacy/sensitivity.h"

namespace eep::mechanisms {

Result<SmoothLaplaceMechanism> SmoothLaplaceMechanism::Create(
    privacy::PrivacyParams params) {
  EEP_RETURN_NOT_OK(privacy::CheckSmoothLaplaceFeasible(params));
  const double b = params.epsilon / (2.0 * std::log(1.0 / params.delta));
  return SmoothLaplaceMechanism(params, b);
}

Result<double> SmoothLaplaceMechanism::NoiseScale(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(double smooth,
                       privacy::SmoothSensitivity(cell.x_v, params_.alpha,
                                                  b_));
  return smooth / (params_.epsilon / 2.0);
}

Status SmoothLaplaceMechanism::ReleaseBatch(const std::vector<CellQuery>& cells,
                                            Rng& rng,
                                            std::vector<double>* out) const {
  const size_t n = cells.size();
  // Per-cell parameter pass: NoiseScale's checks and arithmetic, minus the
  // invariant (alpha, b) feasibility work.
  std::vector<double> scale(n);
  const double inv_half_eps = 2.0 / params_.epsilon;
  for (size_t i = 0; i < n; ++i) {
    if (cells[i].true_count < 0) {
      return Status::InvalidArgument("count must be >= 0");
    }
    if (cells[i].x_v < 0) return Status::InvalidArgument("x_v must be >= 0");
    scale[i] =
        std::max(1.0, static_cast<double>(cells[i].x_v) * params_.alpha) *
        inv_half_eps;
  }
  EEP_ASSIGN_OR_RETURN(LaplaceDistribution unit,
                       LaplaceDistribution::Create(1.0));
  const size_t base = out->size();
  out->resize(base + n);
  double* dst = out->data() + base;
  unit.SampleN(rng, dst, n);
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(cells[i].true_count) + scale[i] * dst[i];
  }
  return Status::OK();
}

Result<double> SmoothLaplaceMechanism::ExpectedL1Error(
    const CellQuery& cell) const {
  // E|Laplace(1)| = 1.
  return NoiseScale(cell);
}

}  // namespace eep::mechanisms
