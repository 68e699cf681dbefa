#include "mechanisms/truncated_laplace.h"

#include <cmath>

#include "common/distributions.h"

namespace eep::mechanisms {

Result<TruncatedLaplaceMechanism> TruncatedLaplaceMechanism::Create(
    int64_t theta, double epsilon, std::unordered_set<int64_t> removed) {
  if (theta < 1) return Status::InvalidArgument("theta must be >= 1");
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return TruncatedLaplaceMechanism(theta, epsilon, std::move(removed));
}

Result<int64_t> TruncatedLaplaceMechanism::TruncatedCount(
    const CellQuery& cell) const {
  if (cell.contributions == nullptr) {
    if (cell.true_count == 0) return int64_t{0};
    return Status::InvalidArgument(
        "Truncated Laplace needs per-establishment contributions");
  }
  int64_t kept = 0;
  for (const auto& contrib : *cell.contributions) {
    if (!removed_.count(contrib.estab_id)) kept += contrib.count;
  }
  return kept;
}

Status TruncatedLaplaceMechanism::ReleaseBatch(
    const std::vector<CellQuery>& cells, Rng& rng,
    std::vector<double>* out) const {
  const size_t n = cells.size();
  std::vector<double> kept(n);
  for (size_t i = 0; i < n; ++i) {
    EEP_ASSIGN_OR_RETURN(int64_t projected, TruncatedCount(cells[i]));
    kept[i] = static_cast<double>(projected);
  }
  EEP_ASSIGN_OR_RETURN(LaplaceDistribution noise,
                       LaplaceDistribution::Create(scale()));
  const size_t base = out->size();
  out->resize(base + n);
  double* dst = out->data() + base;
  noise.SampleN(rng, dst, n);
  for (size_t i = 0; i < n; ++i) dst[i] += kept[i];
  return Status::OK();
}

Result<double> TruncatedLaplaceMechanism::ExpectedL1Error(
    const CellQuery& cell) const {
  EEP_ASSIGN_OR_RETURN(int64_t kept, TruncatedCount(cell));
  // The projection bias is deterministic; Laplace adds theta/epsilon on
  // top. (Lower bound as the sum — exact when bias dominates or is zero.)
  const double bias = static_cast<double>(cell.true_count - kept);
  return std::abs(bias) + scale();
}

}  // namespace eep::mechanisms
