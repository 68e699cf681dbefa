#include "sdl/noise_infusion.h"

#include "common/distributions.h"

namespace eep::sdl {

Status NoiseInfusionParams::Validate() const {
  if (!(0.0 < s && s < t && t < 1.0)) {
    return Status::InvalidArgument("noise infusion requires 0 < s < t < 1");
  }
  if (!(small_cell_limit > 1.0)) {
    return Status::InvalidArgument("small_cell_limit must be > 1");
  }
  return Status::OK();
}

Result<NoiseInfusion> NoiseInfusion::Create(
    NoiseInfusionParams params, const std::vector<int64_t>& estab_ids,
    Rng& rng) {
  EEP_RETURN_NOT_OK(params.Validate());
  EEP_ASSIGN_OR_RETURN(SmallCellSampler sampler,
                       SmallCellSampler::Create(params.small_cell_limit));
  NoiseInfusion infusion(params, sampler);

  EEP_ASSIGN_OR_RETURN(RampDistribution ramp,
                       RampDistribution::Create(params.s, params.t));
  infusion.factors_.reserve(estab_ids.size());
  for (int64_t id : estab_ids) {
    const double magnitude = params.ramp_distribution
                                 ? ramp.Sample(rng)
                                 : rng.Uniform(params.s, params.t);
    const double f = rng.Bernoulli(0.5) ? 1.0 + magnitude : 1.0 - magnitude;
    auto [it, inserted] = infusion.factors_.emplace(id, f);
    if (!inserted) {
      return Status::InvalidArgument("duplicate establishment id " +
                                     std::to_string(id));
    }
  }
  return infusion;
}

Result<double> NoiseInfusion::FactorOf(int64_t estab_id) const {
  auto it = factors_.find(estab_id);
  if (it == factors_.end()) {
    return Status::NotFound("no distortion factor for establishment " +
                            std::to_string(estab_id));
  }
  return it->second;
}

Result<double> NoiseInfusion::ReleaseCell(
    table::ContributionSpan contributions, int64_t true_count,
    Rng& rng) const {
  // Exact zeros pass through (Section 5.1: "Zero counts are left
  // unmodified").
  if (true_count == 0) return 0.0;
  // Small cells: the published value is a posterior-predictive draw, not
  // the noise-infused sum.
  if (small_cells_.NeedsReplacement(true_count)) {
    EEP_ASSIGN_OR_RETURN(int64_t replacement,
                         small_cells_.Sample(true_count, rng));
    return static_cast<double>(replacement);
  }
  double released = 0.0;
  for (const auto& contrib : contributions) {
    EEP_ASSIGN_OR_RETURN(double f, FactorOf(contrib.estab_id));
    released += f * static_cast<double>(contrib.count);
  }
  return released;
}

Result<std::vector<double>> NoiseInfusion::Release(
    const lodes::MarginalQuery& query, Rng& rng) const {
  std::vector<double> out;
  out.reserve(query.cells().size());
  for (const auto& cell : query.cells()) {
    EEP_ASSIGN_OR_RETURN(
        double v, ReleaseCell(query.ContributionsOf(cell), cell.count, rng));
    out.push_back(v);
  }
  return out;
}

}  // namespace eep::sdl
