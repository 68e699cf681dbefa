#include "mechanisms/smooth_gamma.h"

#include <algorithm>
#include <cmath>

#include "privacy/sensitivity.h"

namespace eep::mechanisms {

Result<SmoothGammaMechanism> SmoothGammaMechanism::Create(
    privacy::PrivacyParams params) {
  EEP_RETURN_NOT_OK(privacy::CheckSmoothGammaFeasible(params));
  // eps2 = 5 ln(1+alpha) is the smallest dilation budget for which the
  // smooth sensitivity is bounded (e^{eps2/5} >= 1+alpha, Lemma 8.5); only
  // eps1 enters the noise scale, so minimizing eps2 minimizes error.
  const double eps2 = 5.0 * std::log1p(params.alpha);
  const double eps1 = params.epsilon - eps2;
  return SmoothGammaMechanism(params, eps1, eps2);
}

Result<double> SmoothGammaMechanism::NoiseScale(const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(
      double smooth,
      privacy::SmoothSensitivity(cell.x_v, params_.alpha, eps2_ / 5.0));
  return smooth / (eps1_ / 5.0);
}

Status SmoothGammaMechanism::ReleaseBatch(const std::vector<CellQuery>& cells,
                                          Rng& rng,
                                          std::vector<double>* out) const {
  const size_t n = cells.size();
  std::vector<double> scale(n);
  const double inv_fifth_eps1 = 5.0 / eps1_;
  const double exp_b = std::exp(eps2_ / 5.0);
  for (size_t i = 0; i < n; ++i) {
    if (cells[i].true_count < 0) {
      return Status::InvalidArgument("count must be >= 0");
    }
    if (cells[i].x_v < 0) return Status::InvalidArgument("x_v must be >= 0");
    // NoiseScale's SmoothSensitivity parameter checks, with its messages.
    // Both can fire even though Create succeeded, because Create tests a
    // different inequality (1+alpha < e^{eps/5}): alpha == 0 makes
    // b = eps2/5 zero, and for some alpha the round trip
    // exp(log1p(alpha)) rounds just below 1+alpha.
    if (!(params_.alpha >= 0.0) || !(eps2_ / 5.0 > 0.0)) {
      return Status::InvalidArgument("need alpha >= 0 and b > 0");
    }
    if (exp_b < 1.0 + params_.alpha) {
      return Status::InvalidArgument(
          "smooth sensitivity unbounded: e^b < 1 + alpha (Lemma 8.5)");
    }
    scale[i] =
        std::max(1.0, static_cast<double>(cells[i].x_v) * params_.alpha) *
        inv_fifth_eps1;
  }
  const size_t base = out->size();
  out->resize(base + n);
  double* dst = out->data() + base;
  rng.FillUniform(dst, n);
  constexpr double kMinU = 0x1.0p-53;
  for (size_t i = 0; i < n; ++i) {
    dst[i] = std::max(kMinU, dst[i]);  // Uniform() is already < 1.
  }
  noise_.QuantileN(dst, dst, n);
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(cells[i].true_count) + scale[i] * dst[i];
  }
  return Status::OK();
}

Result<double> SmoothGammaMechanism::ExpectedL1Error(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(double scale, NoiseScale(cell));
  return scale * noise_.MeanAbs();
}

}  // namespace eep::mechanisms
