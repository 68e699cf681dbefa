#include "lodes/generator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "table/table.h"

namespace eep::lodes {
namespace {

// Approximate U.S. employment share by NAICS sector (same order as
// NaicsSectors()). Only relative magnitudes matter: they make retail/health
// dense and mining/utilities sparse, which is what produces the paper's
// sparse place x industry x ownership cells.
constexpr double kSectorShare[20] = {
    1.5, 0.6, 0.5, 5.0, 9.0, 4.5, 11.0, 4.0, 2.0, 4.5,
    1.5, 6.5, 1.5, 6.0, 9.0, 14.0, 1.5, 9.0, 3.0, 5.0};

// Female employment share by sector (drives the sex marginal and Ranking 2).
constexpr double kSectorFemaleShare[20] = {
    0.25, 0.13, 0.25, 0.10, 0.29, 0.30, 0.49, 0.24, 0.40, 0.54,
    0.45, 0.43, 0.45, 0.42, 0.69, 0.78, 0.47, 0.52, 0.52, 0.45};

// Bachelor's-or-higher share by sector.
constexpr double kSectorCollegeShare[20] = {
    0.10, 0.18, 0.25, 0.12, 0.20, 0.25, 0.18, 0.15, 0.48, 0.45,
    0.30, 0.60, 0.55, 0.18, 0.55, 0.40, 0.30, 0.10, 0.20, 0.40};

// Sectors with a younger-skewed age profile (retail, arts, food service).
constexpr bool kSectorYoung[20] = {
    false, false, false, false, false, false, true,  false, false, false,
    false, false, false, false, false, false, true,  true,  false, false};

// Index positions within NaicsSectors() used by the ownership model.
constexpr int kSectorUtilities = 2;
constexpr int kSectorEducation = 14;
constexpr int kSectorHealth = 15;
constexpr int kSectorPublicAdmin = 19;

std::vector<double> OwnershipWeights(int sector) {
  // {Private, StateLocal, Federal}
  if (sector == kSectorPublicAdmin) return {0.02, 0.78, 0.20};
  if (sector == kSectorEducation) return {0.45, 0.54, 0.01};
  if (sector == kSectorHealth) return {0.85, 0.13, 0.02};
  if (sector == kSectorUtilities) return {0.72, 0.27, 0.01};
  return {0.97, 0.02, 0.01};
}

std::vector<double> AgeWeights(bool young) {
  if (young) {
    return {0.11, 0.14, 0.13, 0.24, 0.15, 0.12, 0.08, 0.03};
  }
  return {0.02, 0.05, 0.07, 0.23, 0.23, 0.21, 0.15, 0.04};
}

std::vector<double> RaceWeights() {
  return {0.72, 0.13, 0.012, 0.062, 0.004, 0.072};
}

// Education split conditional on not-BA+: {<HS, HS, SomeCollege} shares of
// the remaining mass.
constexpr double kNonCollegeSplit[3] = {0.18, 0.45, 0.37};

/// Fixed category weights with their sum, formed once per Generate() so a
/// draw only scans them: Draw returns what rng.Categorical(weights) would.
struct Weights {
  explicit Weights(std::vector<double> w) : weights(std::move(w)) {
    for (double x : weights) total += x;
  }
  size_t Draw(Rng& rng) const { return rng.Categorical(weights, total); }

  std::vector<double> weights;
  double total = 0.0;
};

}  // namespace

GeneratorConfig GeneratorConfig::PaperExtract() {
  GeneratorConfig config;
  config.target_jobs = 10'900'000;
  config.num_places = 640;
  return config;
}

Status GeneratorConfig::Validate() const {
  if (target_jobs < 1000) {
    return Status::InvalidArgument("target_jobs must be >= 1000");
  }
  if (num_places < 8) {
    return Status::InvalidArgument("num_places must be >= 8");
  }
  if (!(lognormal_sigma > 0.0) || !(pareto_alpha > 0.0) ||
      !(pareto_xm >= 1.0)) {
    return Status::InvalidArgument("size-distribution parameters invalid");
  }
  if (pareto_tail_prob < 0.0 || pareto_tail_prob > 0.2) {
    return Status::InvalidArgument("pareto_tail_prob must be in [0, 0.2]");
  }
  if (max_estab_size < 100) {
    return Status::InvalidArgument("max_estab_size must be >= 100");
  }
  if (max_place_population < 200000) {
    return Status::InvalidArgument("max_place_population must be >= 200000");
  }
  return Status::OK();
}

Result<LodesDataset> SyntheticLodesGenerator::Generate() const {
  EEP_RETURN_NOT_OK(config_.Validate());
  Rng rng(config_.seed);

  // --- Places: a quarter per population stratum, log-uniform within. ------
  // Strata follow the paper's Figure panels: {0-100, 100-10k, 10k-100k,
  // 100k+}.
  const double stratum_lo[4] = {30.0, 100.0, 10000.0, 100000.0};
  const double stratum_hi[4] = {100.0, 10000.0, 100000.0,
                                static_cast<double>(
                                    config_.max_place_population)};
  std::vector<PlaceInfo> places;
  places.reserve(config_.num_places);
  for (int i = 0; i < config_.num_places; ++i) {
    const int stratum = i % 4;
    const double lo = std::log(stratum_lo[stratum]);
    const double hi = std::log(stratum_hi[stratum]);
    const auto pop = static_cast<int64_t>(std::exp(rng.Uniform(lo, hi)));
    char name[32];
    std::snprintf(name, sizeof(name), "place_%03d", i);
    places.push_back({name, pop});
  }
  EEP_ASSIGN_OR_RETURN(AttributeDomains domains,
                       AttributeDomains::Create(places));

  // Establishments land in places with probability ~ population^0.8:
  // big places are dense, small places sparse but not empty (sub-linear
  // exponent reflects that even hamlets host a gas station or co-op).
  std::vector<double> place_shares;
  place_shares.reserve(places.size());
  for (const auto& p : places) {
    place_shares.push_back(std::pow(static_cast<double>(p.population), 0.8));
  }
  const Weights place_weights(std::move(place_shares));
  const Weights sector_weights(
      std::vector<double>(std::begin(kSectorShare), std::end(kSectorShare)));
  std::vector<Weights> ownership_weights;
  for (int sector = 0; sector < static_cast<int>(std::size(kSectorShare));
       ++sector) {
    ownership_weights.emplace_back(OwnershipWeights(sector));
  }

  // --- Establishments: skewed sizes until target_jobs is reached. ---------
  struct Estab {
    int64_t id;
    uint32_t naics;
    uint32_t ownership;
    uint32_t place;
    int64_t size;
    double female_share;
    double college_share;
  };
  std::vector<Estab> estabs;
  int64_t total_jobs = 0;
  int64_t next_estab_id = 1;
  while (total_jobs < config_.target_jobs) {
    Estab e;
    e.id = next_estab_id++;
    e.naics = static_cast<uint32_t>(sector_weights.Draw(rng));
    e.ownership =
        static_cast<uint32_t>(ownership_weights[e.naics].Draw(rng));
    // The first num_places establishments seed one employer per place so
    // every population stratum has released cells (as in the production
    // data, where every tabulated place has some employer).
    if (e.id <= config_.num_places) {
      e.place = static_cast<uint32_t>(e.id - 1);
    } else {
      e.place = static_cast<uint32_t>(place_weights.Draw(rng));
    }

    if (rng.Bernoulli(config_.pareto_tail_prob)) {
      e.size = static_cast<int64_t>(
          rng.Pareto(config_.pareto_xm, config_.pareto_alpha));
    } else {
      e.size = static_cast<int64_t>(
          std::ceil(rng.LogNormal(config_.lognormal_mu,
                                  config_.lognormal_sigma)));
    }
    e.size = std::clamp<int64_t>(e.size, 1, config_.max_estab_size);
    // Tiny places rarely host mega-employers: cap workplace size at a
    // fraction of the resident population for sub-10k places, so the
    // smallest stratum is made of genuinely small cells (the property
    // behind the paper's Finding 4).
    const int64_t pop = places[e.place].population;
    if (pop < 10000) {
      e.size = std::min(e.size, std::max<int64_t>(5, pop / 5));
    }

    // Establishment-level idiosyncrasy: each workplace has its own
    // demographic tilt around the sector profile. This makes establishment
    // "shape" (Def. 4.3) a genuinely establishment-specific secret.
    e.female_share = Clamp(
        kSectorFemaleShare[e.naics] + rng.Normal(0.0, 0.08), 0.02, 0.98);
    e.college_share = Clamp(
        kSectorCollegeShare[e.naics] + rng.Normal(0.0, 0.07), 0.02, 0.95);

    total_jobs += e.size;
    estabs.push_back(e);
  }

  // --- Build the three normalized tables. ---------------------------------
  EEP_ASSIGN_OR_RETURN(table::Schema workplace_schema,
                       domains.WorkplaceSchema());
  EEP_ASSIGN_OR_RETURN(table::Schema worker_schema, domains.WorkerSchema());
  EEP_ASSIGN_OR_RETURN(table::Schema job_schema, domains.JobSchema());

  std::vector<int64_t> wp_ids;
  std::vector<uint32_t> wp_naics, wp_own, wp_place;
  wp_ids.reserve(estabs.size());
  for (const Estab& e : estabs) {
    wp_ids.push_back(e.id);
    wp_naics.push_back(e.naics);
    wp_own.push_back(e.ownership);
    wp_place.push_back(e.place);
  }
  EEP_ASSIGN_OR_RETURN(
      table::Table workplaces,
      table::Table::Create(workplace_schema,
                           {table::Column::OfInt64(std::move(wp_ids)),
                            table::Column::OfCategory(std::move(wp_naics)),
                            table::Column::OfCategory(std::move(wp_own)),
                            table::Column::OfCategory(std::move(wp_place))}));

  // Worker k holds job k, so Workers and Jobs share one worker-id column;
  // every worker attribute has at most 8 values and is built 1 byte wide.
  std::vector<int64_t> w_ids, j_estab;
  std::vector<uint8_t> w_sex, w_age, w_race, w_eth, w_edu;
  for (auto* ids : {&w_ids, &j_estab}) ids->reserve(total_jobs);
  for (auto* codes : {&w_sex, &w_age, &w_race, &w_eth, &w_edu}) {
    codes->reserve(total_jobs);
  }
  const Weights age_weights[2] = {Weights(AgeWeights(false)),
                                  Weights(AgeWeights(true))};
  const Weights race_weights(RaceWeights());
  const auto female = static_cast<uint8_t>(FemaleCode());
  const auto college = static_cast<uint8_t>(CollegeCode());
  int64_t next_worker_id = 1;
  for (const Estab& e : estabs) {
    const Weights& estab_age_weights = age_weights[kSectorYoung[e.naics]];
    for (int64_t k = 0; k < e.size; ++k) {
      w_ids.push_back(next_worker_id++);
      w_sex.push_back(rng.Bernoulli(e.female_share) ? female : 0);
      w_age.push_back(static_cast<uint8_t>(estab_age_weights.Draw(rng)));
      w_race.push_back(static_cast<uint8_t>(race_weights.Draw(rng)));
      w_eth.push_back(rng.Bernoulli(0.18) ? 1 : 0);
      if (rng.Bernoulli(e.college_share)) {
        w_edu.push_back(college);
      } else {
        const double u = rng.Uniform();
        if (u < kNonCollegeSplit[0]) {
          w_edu.push_back(0);  // LessThanHS
        } else if (u < kNonCollegeSplit[0] + kNonCollegeSplit[1]) {
          w_edu.push_back(1);  // HS
        } else {
          w_edu.push_back(2);  // SomeCollege
        }
      }
      j_estab.push_back(e.id);
    }
  }
  const table::Column worker_ids = table::Column::OfInt64(std::move(w_ids));
  EEP_ASSIGN_OR_RETURN(
      table::Table workers,
      table::Table::Create(worker_schema,
                           {worker_ids,
                            table::Column::OfCategory(std::move(w_sex)),
                            table::Column::OfCategory(std::move(w_age)),
                            table::Column::OfCategory(std::move(w_race)),
                            table::Column::OfCategory(std::move(w_eth)),
                            table::Column::OfCategory(std::move(w_edu))}));
  EEP_ASSIGN_OR_RETURN(
      table::Table jobs,
      table::Table::Create(job_schema,
                           {worker_ids,
                            table::Column::OfInt64(std::move(j_estab))}));

  return LodesDataset::Create(std::move(domains), std::move(workers),
                              std::move(workplaces), std::move(jobs));
}

}  // namespace eep::lodes
