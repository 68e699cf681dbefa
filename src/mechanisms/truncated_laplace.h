// Node-differential privacy via degree truncation (Section 6, "Truncated
// Laplace"): drop every establishment with more than theta employees, then
// answer cell counts on the projected data with Laplace(theta/epsilon)
// noise. Satisfies all three requirements (node-DP implies them) but the
// projection bias on large establishments destroys utility — Finding 6.
#ifndef EEP_MECHANISMS_TRUNCATED_LAPLACE_H_
#define EEP_MECHANISMS_TRUNCATED_LAPLACE_H_

#include <unordered_set>

#include "mechanisms/mechanism.h"

namespace eep::mechanisms {

/// \brief The Truncated Laplace node-DP baseline.
class TruncatedLaplaceMechanism : public CountMechanism {
 public:
  /// `removed_estabs` must be the ids of establishments with degree >
  /// theta (computed once per dataset by graph::TruncateByDegree).
  /// Fails unless theta >= 1 and epsilon > 0.
  static Result<TruncatedLaplaceMechanism> Create(
      int64_t theta, double epsilon,
      std::unordered_set<int64_t> removed_estabs);

  std::string name() const override { return "Truncated Laplace"; }
  int64_t theta() const { return theta_; }
  double epsilon() const { return epsilon_; }
  double scale() const { return static_cast<double>(theta_) / epsilon_; }

  /// Projects every cell first (TruncatedCount: a non-empty cell needs
  /// its contributions), then adds one bulk Laplace(theta/epsilon) fill,
  /// one uniform per cell.
  Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                      std::vector<double>* out) const override;

  /// E|error| = |bias from removed establishments| + theta/epsilon.
  Result<double> ExpectedL1Error(const CellQuery& cell) const override;

  /// The cell count surviving the projection.
  Result<int64_t> TruncatedCount(const CellQuery& cell) const;

 private:
  TruncatedLaplaceMechanism(int64_t theta, double epsilon,
                            std::unordered_set<int64_t> removed)
      : theta_(theta), epsilon_(epsilon), removed_(std::move(removed)) {}

  int64_t theta_;
  double epsilon_;
  std::unordered_set<int64_t> removed_;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_TRUNCATED_LAPLACE_H_
