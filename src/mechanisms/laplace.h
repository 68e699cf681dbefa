// The plain Laplace mechanism with sensitivity 1 — edge-differential
// privacy on the job graph (Section 6). Satisfies the employee requirement
// (Def. 4.1) but NOT the establishment size/shape requirements: the noise
// is O(1/eps) regardless of establishment size, so a 10,000-employee count
// is disclosed to within a few workers (Claim B.1).
#ifndef EEP_MECHANISMS_LAPLACE_H_
#define EEP_MECHANISMS_LAPLACE_H_

#include "mechanisms/mechanism.h"

namespace eep::mechanisms {

/// \brief count + Laplace(1/epsilon): the edge-DP baseline.
class EdgeLaplaceMechanism : public CountMechanism {
 public:
  /// Fails unless epsilon > 0.
  static Result<EdgeLaplaceMechanism> Create(double epsilon);

  std::string name() const override { return "Edge-Laplace"; }
  double epsilon() const { return epsilon_; }
  double scale() const { return 1.0 / epsilon_; }

  /// One bulk Laplace(1/epsilon) fill, then one add per cell: exactly one
  /// uniform per cell.
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;
  /// E|error| = 1/epsilon, independent of the cell.
  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

 private:
  explicit EdgeLaplaceMechanism(double epsilon) : epsilon_(epsilon) {}
  double epsilon_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_LAPLACE_H_
