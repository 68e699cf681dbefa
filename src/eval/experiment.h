// The multi-trial experiment runner behind every figure: releases a
// marginal with the SDL baseline and with a formally private mechanism,
// accumulates L1 errors and rank correlations overall and per place-size
// stratum, and reports ratios (the paper's "cost of formal privacy").
#ifndef EEP_EVAL_EXPERIMENT_H_
#define EEP_EVAL_EXPERIMENT_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "eval/strata.h"
#include "lodes/marginal.h"
#include "mechanisms/mechanism.h"
#include "sdl/noise_infusion.h"

namespace eep::eval {

/// \brief Configuration shared by all experiments.
struct ExperimentConfig {
  /// Independent trials per measurement (the paper uses 20). Every runner
  /// method that averages over trials returns InvalidArgument below 1.
  int trials = 20;
  uint64_t seed = 7;
  /// Worker threads for the error experiments. Trials use independently
  /// forked RNG streams, so results are bitwise identical for any thread
  /// count; raise this for full-scale (10.9M-job) runs.
  int threads = 1;
  sdl::NoiseInfusionParams sdl_params;
};

/// \brief Per-stratum and overall L1 error totals (summed across cells,
/// averaged across trials).
struct StratifiedError {
  double overall = 0.0;
  std::array<double, kNumStrata> by_stratum{};
  /// Number of cells contributing to each stratum (trial-invariant).
  std::array<int64_t, kNumStrata> cells_by_stratum{};
  int64_t total_cells = 0;
};

/// \brief Ratio of a mechanism's stratified error to the SDL baseline's.
struct ErrorRatioResult {
  StratifiedError mechanism;
  StratifiedError baseline;
  double overall_ratio = 0.0;
  std::array<double, kNumStrata> stratum_ratio{};
};

/// \brief Spearman rank correlations against the SDL ordering, overall and
/// per stratum (averaged across trials; NaN-free: strata with < 2 cells
/// report 0).
struct StratifiedCorrelation {
  double overall = 0.0;
  std::array<double, kNumStrata> by_stratum{};
};

/// Restricts an experiment to a subset of cells (e.g. one sex x education
/// slice). Returning true keeps the cell.
using CellFilter = std::function<bool(const lodes::MarginalCell&)>;

/// \brief Runs SDL-vs-mechanism comparisons on one dataset.
class ExperimentRunner {
 public:
  ExperimentRunner(const lodes::LodesDataset* data, ExperimentConfig config)
      : data_(data), config_(config) {}

  const ExperimentConfig& config() const { return config_; }

  /// Average (over trials) stratified L1 error of the SDL baseline on the
  /// filtered cells of `query`. Each trial draws fresh distortion factors.
  Result<StratifiedError> SdlError(const lodes::MarginalQuery& query,
                                   const CellFilter& filter = nullptr);

  /// Average stratified L1 error of `mechanism` on the filtered cells.
  Result<StratifiedError> MechanismError(const lodes::MarginalQuery& query,
                                         const mechanisms::CountMechanism& mechanism,
                                         const CellFilter& filter = nullptr);

  /// Mechanism-vs-SDL error ratio (Figures 1, 3, 4).
  Result<ErrorRatioResult> ErrorRatio(const lodes::MarginalQuery& query,
                                      const mechanisms::CountMechanism& mechanism,
                                      const CellFilter& filter = nullptr);

  /// Spearman correlation between the mechanism's released cell values and
  /// the SDL baseline's, per trial, averaged (Figures 2 and 5). `values`
  /// picks which released quantity ranks the cells — by default the cell
  /// count itself; Ranking 2 passes a slice filter instead.
  Result<StratifiedCorrelation> RankingCorrelation(
      const lodes::MarginalQuery& query,
      const mechanisms::CountMechanism& mechanism,
      const CellFilter& filter = nullptr);

  /// One SDL release of the filtered cells (single trial), exposed for
  /// examples and tests.
  Result<std::vector<double>> SdlReleaseOnce(const lodes::MarginalQuery& query,
                                             uint64_t trial_seed);

  /// \brief Per-cell relative-error comparison backing the paper's
  /// Finding-1 percentages ("relative L1 within 10 percentage points of
  /// SDL for 65% of the counts").
  struct RelativeErrorComparison {
    /// Fraction of considered cells whose mechanism relative error exceeds
    /// the SDL relative error by at most `threshold`.
    double fraction_within = 0.0;
    /// Cells with positive true counts (relative error defined).
    int64_t cells_considered = 0;
    /// Mean relative error of mechanism and baseline over those cells.
    double mean_mechanism_rel = 0.0;
    double mean_baseline_rel = 0.0;
  };

  /// Compares trial-averaged per-cell relative errors of `mechanism`
  /// against the SDL baseline. Only cells with positive true counts are
  /// considered.
  Result<RelativeErrorComparison> CompareRelativeError(
      const lodes::MarginalQuery& query,
      const mechanisms::CountMechanism& mechanism, double threshold = 0.10,
      const CellFilter& filter = nullptr);

 private:
  /// Indices of cells passing the filter, with their strata.
  struct FilteredCells {
    std::vector<size_t> indices;
    std::vector<int> strata;
  };
  FilteredCells ApplyFilter(const lodes::MarginalQuery& query,
                            const CellFilter& filter) const;

  /// Releases the filtered cells once for a trial.
  using TrialReleaseFn = std::function<Result<std::vector<double>>(
      const lodes::MarginalQuery&, const FilteredCells&, Rng&)>;

  /// InvalidArgument unless config_.trials >= 1.
  Status CheckTrials() const;

  /// Runs config_.trials releases (possibly across config_.threads worker
  /// threads; bitwise deterministic either way) and averages the
  /// stratified L1 totals.
  Result<StratifiedError> RunErrorTrials(const lodes::MarginalQuery& query,
                                         const FilteredCells& cells,
                                         uint64_t seed_salt,
                                         const TrialReleaseFn& release) const;

  Result<std::vector<double>> ReleaseWithMechanism(
      const lodes::MarginalQuery& query,
      const mechanisms::CountMechanism& mechanism,
      const FilteredCells& cells, Rng& rng) const;

  Result<std::vector<double>> ReleaseWithSdl(const lodes::MarginalQuery& query,
                                             const FilteredCells& cells,
                                             Rng& rng) const;

  const lodes::LodesDataset* data_;
  ExperimentConfig config_;
};

}  // namespace eep::eval

#endif  // EEP_EVAL_EXPERIMENT_H_
