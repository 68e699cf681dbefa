#include "mechanisms/geometric.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "privacy/sensitivity.h"

namespace eep::mechanisms {
namespace {

// exp(-1/scale) rounds to exactly 1.0 once 1/scale drops below ~2^-54 (one
// half-ulp of 1). The mechanism rejects that region: the sampler's 1/ln(p)
// and ExpectedL1Error's 2p/(1-p^2) are inf/NaN there, and a noise
// distribution indistinguishable from "no distribution" has no meaningful
// release. GeometricParameter guards the computed p directly; ReleaseBatch
// evaluates that same check, but only for scales above this conservative
// bound (exp(-1/2^50) is still 16 ulp below 1), keeping exp out of the
// hot loop while refusing exactly the cells GeometricParameter refuses.
constexpr double kNearDegenerateScale = 0x1p50;

// One leg of the two-sided geometric inverse transform,
// floor(ln(u)/ln(p)), with inv_log_p = 1/ln(p) precomputed by the caller.
// Returns double: for near-degenerate parameters the leg magnitude can
// exceed int64 range, and the difference of two legs is what the
// mechanism releases. A zero uniform saturates inside FastLogPositive
// instead of being redrawn.
double TwoSidedGeometricLeg(double u, double inv_log_p) {
  return std::floor(FastLogPositive(u) * inv_log_p);
}

Status DegenerateParameterError() {
  return Status::OutOfRange(
      "geometric parameter p = exp(-1/scale) is not in [0, 1): smooth "
      "sensitivity too large (x_v * alpha overflows the noise scale)");
}

}  // namespace

Result<GeometricMechanism> GeometricMechanism::Create(
    privacy::PrivacyParams params) {
  EEP_RETURN_NOT_OK(privacy::CheckSmoothLaplaceFeasible(params));
  const double b = params.epsilon / (2.0 * std::log(1.0 / params.delta));
  return GeometricMechanism(params, b);
}

Result<double> GeometricMechanism::GeometricParameter(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(
      double smooth, privacy::SmoothSensitivity(cell.x_v, params_.alpha, b_));
  const double scale = smooth / (params_.epsilon / 2.0);
  // Match the continuous Laplace(scale) tail: Pr[|k|] ~ p^{|k|} with
  // p = e^{-1/scale}.
  const double p = std::exp(-1.0 / scale);
  if (!(p >= 0.0 && p < 1.0)) return DegenerateParameterError();
  return p;
}

Status GeometricMechanism::ReleaseBatch(const std::vector<CellQuery>& cells,
                                        Rng& rng,
                                        std::vector<double>* out) const {
  const size_t n = cells.size();
  // Parameter pass, hoisted out of the sampling loop: (alpha, b)
  // feasibility was settled at Create, and ln(p) = -1/scale exactly in the
  // math, so the batch path needs neither exp nor log to derive the
  // per-cell 1/ln(p) = -scale the inverse transform divides by.
  std::vector<double> inv_log_p(n);
  const double half_eps = params_.epsilon / 2.0;
  for (size_t i = 0; i < n; ++i) {
    if (cells[i].true_count < 0) {
      return Status::InvalidArgument("count must be >= 0");
    }
    if (cells[i].x_v < 0) return Status::InvalidArgument("x_v must be >= 0");
    // Same expression as GeometricParameter, so the degenerate cutoff
    // below agrees with it to the last ulp.
    const double scale =
        std::max(1.0, static_cast<double>(cells[i].x_v) * params_.alpha) /
        half_eps;
    if (scale >= kNearDegenerateScale) {
      const double p = std::exp(-1.0 / scale);
      if (!(p >= 0.0 && p < 1.0)) return DegenerateParameterError();
    }
    inv_log_p[i] = -scale;
  }
  // Two uniforms per cell, drawn in one bulk fill; stream consumption is
  // exactly 2n (no redraw loop: a zero uniform, probability 2^-53,
  // saturates inside FastLogPositive instead — an equally far tail draw).
  std::vector<double> u(2 * n);
  rng.FillUniform(u.data(), 2 * n);
  const size_t base = out->size();
  out->resize(base + n);
  double* dst = out->data() + base;
  for (size_t i = 0; i < n; ++i) {
    const double g1 = TwoSidedGeometricLeg(u[2 * i], inv_log_p[i]);
    const double g2 = TwoSidedGeometricLeg(u[2 * i + 1], inv_log_p[i]);
    dst[i] = static_cast<double>(cells[i].true_count) + (g1 - g2);
  }
  return Status::OK();
}

Result<double> GeometricMechanism::ExpectedL1Error(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(double p, GeometricParameter(cell));
  // E|X| for the difference of two Geometric(1-p) draws: 2p/(1-p^2).
  return 2.0 * p / (1.0 - p * p);
}

}  // namespace eep::mechanisms
