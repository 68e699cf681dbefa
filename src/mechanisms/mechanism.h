// The common interface all count-release mechanisms implement.
//
// A mechanism draws noise in one place: ReleaseBatch, which releases a
// vector of cells from one rng. Marginal-level releases (and their
// composition accounting) are orchestrated by eval::ExperimentRunner and
// release::RunReleaseWorkload on top of it, and a single draw is a
// one-cell batch. The sampling contract (a batch is a pure function of the
// incoming rng state; the tests that bind each sampler to its noise law)
// is documented in docs/ARCHITECTURE.md, "Contract 2".
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

/// \brief A randomized count release mechanism.
class CountMechanism {
 public:
  virtual ~CountMechanism() = default;

  /// Mechanism name for reports ("Log-Laplace", ...).
  virtual std::string name() const = 0;

  /// Releases a batch of cells, appending one noisy count per cell to
  /// `out`; a refused batch appends nothing. Deterministic given the
  /// incoming `rng` state. Callers discard the rng after the call
  /// rather than relying on its final position; sharded runners call this
  /// once per shard with that shard's substream.
  virtual Status ReleaseBatch(const std::vector<CellQuery>& cells, Rng& rng,
                              std::vector<double>* out) const = 0;

  /// Analytic expected |error| for this cell when available; unbounded /
  /// unknown values return an error status.
  virtual Result<double> ExpectedL1Error(const CellQuery& cell) const = 0;
};

}  // namespace eep::mechanisms

#endif  // EEP_MECHANISMS_MECHANISM_H_
