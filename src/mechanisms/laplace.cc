#include "mechanisms/laplace.h"

#include "common/distributions.h"

namespace eep::mechanisms {

Result<EdgeLaplaceMechanism> EdgeLaplaceMechanism::Create(double epsilon) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return EdgeLaplaceMechanism(epsilon);
}

Status EdgeLaplaceMechanism::ReleaseBatch(const std::vector<CellQuery>& cells,
                                          Rng& rng,
                                          std::vector<double>* out) const {
  EEP_ASSIGN_OR_RETURN(LaplaceDistribution noise,
                       LaplaceDistribution::Create(scale()));
  const size_t base = out->size();
  out->resize(base + cells.size());
  double* dst = out->data() + base;
  noise.SampleN(rng, dst, cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    dst[i] += static_cast<double>(cells[i].true_count);
  }
  return Status::OK();
}

Result<double> EdgeLaplaceMechanism::ExpectedL1Error(
    const CellQuery& /*cell*/) const {
  return scale();
}

}  // namespace eep::mechanisms
