// The common interface all count-release mechanisms implement.
//
// A mechanism releases one cell of a marginal at a time; marginal-level
// releases (and their composition accounting) are orchestrated by
// eval::ExperimentRunner and release::RunReleaseWorkload on top of this
// interface. The batch-sampling determinism contract (ReleaseBatch as a
// pure function of the incoming rng state, free to consume the stream
// differently from the scalar loop) is documented in
// docs/ARCHITECTURE.md, "Batch sampling".
#ifndef EEP_MECHANISMS_MECHANISM_H_
#define EEP_MECHANISMS_MECHANISM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "table/group_by.h"

namespace eep::mechanisms {

/// \brief Inputs for releasing one marginal cell.
struct CellQuery {
  /// True count q_v(D).
  int64_t true_count = 0;
  /// Largest single-establishment contribution to the cell (x_v of
  /// Lemma 8.5); drives the smooth-sensitivity mechanisms.
  int64_t x_v = 0;
  /// Optional per-establishment breakdown; required by mechanisms that
  /// project the data (Truncated Laplace), ignored by the rest.
  const std::vector<table::EstabContribution>* contributions = nullptr;
};

/// \brief A randomized single-count release mechanism.
class CountMechanism {
 public:
  virtual ~CountMechanism() = default;

  /// Mechanism name for reports ("Log-Laplace", ...).
  virtual std::string name() const = 0;

  /// Releases one noisy count.
  virtual Result<double> Release(const CellQuery& cell, Rng& rng) const = 0;

  /// Releases a batch of cells, appending one noisy count per cell to
  /// `out`. The default draws per cell via Release(). Overrides (e.g. a
  /// vectorized sampler) must be deterministic given the incoming `rng`
  /// state but are free to consume the stream differently from the
  /// default, which changes the released values — akin to changing the
  /// seed, and fine because callers discard the rng after the call rather
  /// than relying on its final position. Sharded runners call this once
  /// per shard with that shard's substream.
  virtual Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                              std::vector<double>* out) const {
    out->reserve(out->size() + cells.size());
    for (const CellQuery& cell : cells) {
      EEP_ASSIGN_OR_RETURN(double released, Release(cell, rng));
      out->push_back(released);
    }
    return Status::OK();
  }

  /// Analytic expected |error| for this cell when available; unbounded /
  /// unknown values return an error status.
  virtual Result<double> ExpectedL1Error(const CellQuery& cell) const = 0;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_MECHANISM_H_
