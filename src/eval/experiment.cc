#include "eval/experiment.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "table/partitioned_group_by.h"

namespace eep::eval {

ExperimentRunner::FilteredCells ExperimentRunner::ApplyFilter(
    const lodes::MarginalQuery& query, const CellFilter& filter) const {
  FilteredCells out;
  const auto& cells = query.cells();
  out.indices.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    if (filter && !filter(cells[i])) continue;
    out.indices.push_back(i);
    out.strata.push_back(StratumOf(query.PlacePopulation(cells[i])));
  }
  return out;
}

Result<std::vector<double>> ExperimentRunner::ReleaseWithSdl(
    const lodes::MarginalQuery& query, const FilteredCells& cells,
    Rng& rng) const {
  // Fresh confidential distortion factors per trial: one draw of the
  // production system.
  EEP_ASSIGN_OR_RETURN(const table::Column* id_col,
                       data_->workplaces().ColumnByName(lodes::kColEstabId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* estab_ids,
                       id_col->AsInt64());
  EEP_ASSIGN_OR_RETURN(
      sdl::NoiseInfusion infusion,
      sdl::NoiseInfusion::Create(config_.sdl_params, *estab_ids, rng));

  static const std::vector<table::EstabContribution> kNoContribs;
  std::vector<double> out;
  out.reserve(cells.indices.size());
  for (size_t idx : cells.indices) {
    const auto& cell = query.cells()[idx];
    const table::GroupedCell* grouped = query.grouped().Find(cell.key);
    const auto& contribs = grouped ? grouped->contributions : kNoContribs;
    EEP_ASSIGN_OR_RETURN(double v,
                         infusion.ReleaseCell(contribs, cell.count, rng));
    out.push_back(v);
  }
  return out;
}

Result<std::vector<double>> ExperimentRunner::ReleaseWithMechanism(
    const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, const FilteredCells& cells,
    Rng& rng) const {
  static const std::vector<table::EstabContribution> kNoContribs;
  std::vector<mechanisms::CellQuery> batch;
  batch.reserve(cells.indices.size());
  for (size_t idx : cells.indices) {
    const auto& cell = query.cells()[idx];
    mechanisms::CellQuery cq;
    cq.true_count = cell.count;
    cq.x_v = cell.x_v;
    const table::GroupedCell* grouped = query.grouped().Find(cell.key);
    cq.contributions = grouped ? &grouped->contributions : &kNoContribs;
    batch.push_back(cq);
  }
  std::vector<double> out;
  // eep-lint: measurement-harness -- accuracy experiments sweep budgets
  // as the independent variable; there is no ledger to charge by design
  EEP_RETURN_NOT_OK(mechanism.ReleaseBatch(batch, rng, &out));
  return out;
}

namespace {

// Accumulates |released - true| into stratified totals for one trial.
void AccumulateErrors(const lodes::MarginalQuery& query,
                      const std::vector<size_t>& indices,
                      const std::vector<int>& strata,
                      const std::vector<double>& released,
                      StratifiedError* totals) {
  for (size_t i = 0; i < indices.size(); ++i) {
    const double truth =
        static_cast<double>(query.cells()[indices[i]].count);
    const double err = std::abs(released[i] - truth);
    totals->overall += err;
    totals->by_stratum[strata[i]] += err;
  }
}

}  // namespace

Status ExperimentRunner::CheckTrials() const {
  if (config_.trials < 1) {
    return Status::InvalidArgument(
        "experiment needs trials >= 1 to average over, got " +
        std::to_string(config_.trials));
  }
  return Status::OK();
}

Result<StratifiedError> ExperimentRunner::RunErrorTrials(
    const lodes::MarginalQuery& query, const FilteredCells& cells,
    uint64_t seed_salt, const TrialReleaseFn& release) const {
  EEP_RETURN_NOT_OK(CheckTrials());
  Rng rng(config_.seed ^ seed_salt);
  StratifiedError totals;
  totals.total_cells = static_cast<int64_t>(cells.indices.size());
  for (size_t i = 0; i < cells.indices.size(); ++i) {
    ++totals.cells_by_stratum[cells.strata[i]];
  }

  // Fork all trial streams up front (sequentially, for determinism) and
  // run trials round-robin on worker threads. Each trial writes its own
  // partial, so the merge order — and therefore every float — matches the
  // serial run.
  std::vector<Rng> trial_rngs;
  trial_rngs.reserve(config_.trials);
  for (int t = 0; t < config_.trials; ++t) trial_rngs.push_back(rng.Fork(t));

  std::vector<StratifiedError> partials(config_.trials);
  std::vector<Status> statuses(config_.trials);
  auto run_trial = [&](int t) {
    auto released = release(query, cells, trial_rngs[t]);
    if (!released.ok()) {
      statuses[t] = released.status();
      return;
    }
    AccumulateErrors(query, cells.indices, cells.strata, released.value(),
                     &partials[t]);
  };

  const int threads = std::clamp(config_.threads, 1, config_.trials);
  table::RunOnWorkers(threads, [&](int w) {
    for (int t = w; t < config_.trials; t += threads) run_trial(t);
  });

  for (int t = 0; t < config_.trials; ++t) {
    EEP_RETURN_NOT_OK(statuses[t]);
    totals.overall += partials[t].overall;
    for (int s = 0; s < kNumStrata; ++s) {
      totals.by_stratum[s] += partials[t].by_stratum[s];
    }
  }
  const double inv_trials = 1.0 / config_.trials;
  totals.overall *= inv_trials;
  for (auto& v : totals.by_stratum) v *= inv_trials;
  return totals;
}

Result<StratifiedError> ExperimentRunner::SdlError(
    const lodes::MarginalQuery& query, const CellFilter& filter) {
  const FilteredCells cells = ApplyFilter(query, filter);
  return RunErrorTrials(
      query, cells, 0x5D1Au,
      [this](const lodes::MarginalQuery& q, const FilteredCells& c,
             Rng& rng) { return ReleaseWithSdl(q, c, rng); });
}

Result<StratifiedError> ExperimentRunner::MechanismError(
    const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, const CellFilter& filter) {
  const FilteredCells cells = ApplyFilter(query, filter);
  return RunErrorTrials(
      query, cells, 0x3EC4u,
      [this, &mechanism](const lodes::MarginalQuery& q,
                         const FilteredCells& c, Rng& rng) {
        return ReleaseWithMechanism(q, mechanism, c, rng);
      });
}

Result<ErrorRatioResult> ExperimentRunner::ErrorRatio(
    const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, const CellFilter& filter) {
  ErrorRatioResult result;
  EEP_ASSIGN_OR_RETURN(result.mechanism,
                       MechanismError(query, mechanism, filter));
  EEP_ASSIGN_OR_RETURN(result.baseline, SdlError(query, filter));
  if (result.baseline.overall <= 0.0) {
    return Status::FailedPrecondition(
        "SDL baseline error is zero; ratio undefined");
  }
  result.overall_ratio = result.mechanism.overall / result.baseline.overall;
  for (int s = 0; s < kNumStrata; ++s) {
    result.stratum_ratio[s] =
        result.baseline.by_stratum[s] > 0.0
            ? result.mechanism.by_stratum[s] / result.baseline.by_stratum[s]
            : 0.0;
  }
  return result;
}

Result<StratifiedCorrelation> ExperimentRunner::RankingCorrelation(
    const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, const CellFilter& filter) {
  EEP_RETURN_NOT_OK(CheckTrials());
  const FilteredCells cells = ApplyFilter(query, filter);
  if (cells.indices.size() < 2) {
    return Status::InvalidArgument("ranking needs >= 2 cells");
  }
  Rng sdl_rng(config_.seed ^ 0x5D1Au);
  Rng mech_rng(config_.seed ^ 0x3EC4u);
  RunningStats overall;
  std::array<RunningStats, kNumStrata> per_stratum;
  for (int t = 0; t < config_.trials; ++t) {
    Rng sdl_trial = sdl_rng.Fork(t);
    Rng mech_trial = mech_rng.Fork(t);
    EEP_ASSIGN_OR_RETURN(std::vector<double> sdl_release,
                         ReleaseWithSdl(query, cells, sdl_trial));
    EEP_ASSIGN_OR_RETURN(
        std::vector<double> mech_release,
        ReleaseWithMechanism(query, mechanism, cells, mech_trial));
    auto corr = SpearmanCorrelation(mech_release, sdl_release);
    if (corr.ok()) overall.Add(corr.value());

    for (int s = 0; s < kNumStrata; ++s) {
      std::vector<double> sdl_s, mech_s;
      for (size_t i = 0; i < cells.indices.size(); ++i) {
        if (cells.strata[i] != s) continue;
        sdl_s.push_back(sdl_release[i]);
        mech_s.push_back(mech_release[i]);
      }
      if (sdl_s.size() < 2) continue;
      auto corr_s = SpearmanCorrelation(mech_s, sdl_s);
      if (corr_s.ok()) per_stratum[s].Add(corr_s.value());
    }
  }
  StratifiedCorrelation result;
  result.overall = overall.mean();
  for (int s = 0; s < kNumStrata; ++s) {
    result.by_stratum[s] = per_stratum[s].mean();
  }
  return result;
}

Result<ExperimentRunner::RelativeErrorComparison>
ExperimentRunner::CompareRelativeError(
    const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, double threshold,
    const CellFilter& filter) {
  EEP_RETURN_NOT_OK(CheckTrials());
  const FilteredCells cells = ApplyFilter(query, filter);
  const size_t n = cells.indices.size();
  std::vector<double> mech_abs(n, 0.0), sdl_abs(n, 0.0);

  Rng sdl_rng(config_.seed ^ 0x5D1Au);
  Rng mech_rng(config_.seed ^ 0x3EC4u);
  for (int t = 0; t < config_.trials; ++t) {
    Rng sdl_trial = sdl_rng.Fork(t);
    Rng mech_trial = mech_rng.Fork(t);
    EEP_ASSIGN_OR_RETURN(std::vector<double> sdl_release,
                         ReleaseWithSdl(query, cells, sdl_trial));
    EEP_ASSIGN_OR_RETURN(
        std::vector<double> mech_release,
        ReleaseWithMechanism(query, mechanism, cells, mech_trial));
    for (size_t i = 0; i < n; ++i) {
      const double truth =
          static_cast<double>(query.cells()[cells.indices[i]].count);
      sdl_abs[i] += std::abs(sdl_release[i] - truth);
      mech_abs[i] += std::abs(mech_release[i] - truth);
    }
  }

  RelativeErrorComparison result;
  int64_t within = 0;
  for (size_t i = 0; i < n; ++i) {
    const double truth =
        static_cast<double>(query.cells()[cells.indices[i]].count);
    if (truth <= 0.0) continue;
    const double mech_rel = mech_abs[i] / config_.trials / truth;
    const double sdl_rel = sdl_abs[i] / config_.trials / truth;
    ++result.cells_considered;
    result.mean_mechanism_rel += mech_rel;
    result.mean_baseline_rel += sdl_rel;
    if (mech_rel - sdl_rel <= threshold) ++within;
  }
  if (result.cells_considered == 0) {
    return Status::InvalidArgument("no cells with positive counts");
  }
  result.fraction_within =
      static_cast<double>(within) /
      static_cast<double>(result.cells_considered);
  result.mean_mechanism_rel /=
      static_cast<double>(result.cells_considered);
  result.mean_baseline_rel /= static_cast<double>(result.cells_considered);
  return result;
}

Result<std::vector<double>> ExperimentRunner::SdlReleaseOnce(
    const lodes::MarginalQuery& query, uint64_t trial_seed) {
  const FilteredCells cells = ApplyFilter(query, nullptr);
  Rng rng(trial_seed);
  return ReleaseWithSdl(query, cells, rng);
}

}  // namespace eep::eval
