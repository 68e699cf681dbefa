// Synthetic LODES microdata generator.
//
// The paper's experiments run on a confidential 3-state LODES extract
// (10.9M jobs, ~527k establishments) that cannot be shipped. This
// generator stands in for it, so absolute errors differ from the paper's
// while the comparisons between mechanisms hold: it reproduces the three
// data properties that drive every empirical result —
//   (1) right-skewed establishment sizes (log-normal body + Pareto tail),
//   (2) sparse place x industry x ownership cells,
//   (3) Census places whose populations span the paper's four strata.
// Worker attributes are correlated with industry so demographic slices
// (e.g. "females with a college degree") vary realistically across cells.
#ifndef EEP_LODES_GENERATOR_H_
#define EEP_LODES_GENERATOR_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "lodes/dataset.h"

namespace eep::lodes {

/// \brief Tuning knobs for the synthetic population.
///
/// Defaults produce ~2% of the paper's extract (about 210k jobs in ~10k
/// establishments across 160 places) and run in well under a second; scale
/// `target_jobs` up to 10'900'000 to match the paper's extract 1:1.
struct GeneratorConfig {
  /// The paper's 3-state LODES extract at 1:1 scale: 10.9M jobs in ~420k
  /// establishments under the default size distribution (same regime as
  /// the extract's ~527k), spread over four times the default place count
  /// so cell sparsity stays realistic.
  /// Generate() took 1.9-2.2 s on a 4-vCPU Xeon container and left about
  /// 270 MiB of extract resident (peak about 340 MiB) — benches opt in via
  /// --paper, and the regression test carrying this preset is
  /// CTest-labeled `slow`.
  static GeneratorConfig PaperExtract();

  uint64_t seed = 42;

  /// Approximate number of jobs to generate (establishments are drawn until
  /// their sizes sum past this).
  int64_t target_jobs = 200000;

  /// Number of Census places. A quarter of places land in each population
  /// stratum {0-100, 100-10k, 10k-100k, 100k+} so stratified panels are
  /// well-populated.
  int32_t num_places = 160;

  /// Establishment-size distribution: log-normal body...
  double lognormal_mu = 1.6;
  double lognormal_sigma = 1.25;
  /// ...with a Pareto upper tail mixed in (matching the heavy right skew the
  /// paper emphasizes).
  double pareto_tail_prob = 0.015;
  double pareto_xm = 200.0;
  double pareto_alpha = 1.05;
  /// Hard cap so a single draw cannot swamp the scaled-down dataset.
  int64_t max_estab_size = 20000;

  /// Largest place population (the upper stratum spans up to this).
  int64_t max_place_population = 1500000;

  Status Validate() const;
};

/// \brief Draws a complete synthetic LodesDataset.
class SyntheticLodesGenerator {
 public:
  explicit SyntheticLodesGenerator(GeneratorConfig config)
      : config_(config) {}

  /// Generates Worker/Workplace/Job tables and assembles the dataset
  /// (including the WorkerFull join). Deterministic given config.seed.
  Result<LodesDataset> Generate() const;

  const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
};

}  // namespace eep::lodes

#endif  // EEP_LODES_GENERATOR_H_
