// Fused workload engine: every marginal computed by ComputeWorkload (one
// shared scan + cube roll-ups) must be bit-identical to the independent
// MarginalQuery::Compute on random datasets for every thread count, and
// RunReleaseWorkload must release tables bit-identical to releasing each
// marginal as its own one-marginal workload with the same rng — the
// determinism contract the whole fused path rests on
// (docs/ARCHITECTURE.md).
#include <gtest/gtest.h>

#include "grouping_checks.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "release/pipeline.h"

namespace eep {
namespace {

using lodes::MarginalSpec;
using lodes::WorkloadSpec;

lodes::LodesDataset MakeDataset(uint64_t seed, int64_t jobs, int32_t places) {
  lodes::GeneratorConfig config;
  config.seed = seed;
  config.target_jobs = jobs;
  config.num_places = places;
  auto data = lodes::SyntheticLodesGenerator(config).Generate();
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

void ExpectQueriesEqual(const lodes::MarginalQuery& expected,
                        const lodes::MarginalQuery& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.codec().columns(), actual.codec().columns()) << context;
  ASSERT_EQ(expected.WorkerDomainSize(), actual.WorkerDomainSize())
      << context;
  ASSERT_EQ(expected.cells().size(), actual.cells().size()) << context;
  for (size_t i = 0; i < expected.cells().size(); ++i) {
    const lodes::MarginalCell& e = expected.cells()[i];
    const lodes::MarginalCell& a = actual.cells()[i];
    ASSERT_EQ(e.key, a.key) << context << " cell " << i;
    ASSERT_EQ(e.count, a.count) << context << " cell " << i;
    ASSERT_EQ(e.x_v, a.x_v) << context << " cell " << i;
    ASSERT_EQ(e.num_estabs, a.num_estabs) << context << " cell " << i;
    ASSERT_EQ(e.place_code, a.place_code) << context << " cell " << i;
  }
  // The grouped cells back the smooth-sensitivity mechanisms and the SDL
  // baseline; they must match contribution for contribution.
  table::ExpectSameCells(expected.grouped(), actual.grouped(), context);
}

// The independent reference for the fused release: each marginal of
// `config.workload` released as its own one-marginal workload off one
// caller rng. Each call scans the table at that marginal's own columns —
// one full scan, served as an exact hit, no roll-up — so fused ==
// independent compares the shared-scan path against direct scans.
std::vector<release::ReleasedTable> ReleaseIndependently(
    const lodes::LodesDataset& data, release::WorkloadReleaseConfig config,
    Rng& rng) {
  const WorkloadSpec workload = config.workload;
  std::vector<release::ReleasedTable> tables;
  for (const MarginalSpec& spec : workload.marginals) {
    config.workload = {{spec}};
    release::WorkloadReleaseStats stats;
    auto released =
        release::RunReleaseWorkload(data, config, nullptr, rng, nullptr,
                                    &stats);
    EXPECT_TRUE(released.ok()) << released.status().ToString();
    if (!released.ok()) return {};
    EXPECT_EQ(stats.compute.full_table_scans, 1);
    EXPECT_EQ(stats.compute.rollups, 0);
    tables.push_back(std::move(released.value()[0]));
  }
  return tables;
}

TEST(WorkloadSpecTest, ValidateAndByName) {
  EXPECT_FALSE(WorkloadSpec{}.Validate().ok());
  EXPECT_TRUE(WorkloadSpec::PaperTabulations().Validate().ok());

  auto paper = WorkloadSpec::ByName("paper");
  ASSERT_TRUE(paper.ok());
  EXPECT_EQ(paper.value().marginals.size(), 2u);

  auto listed = WorkloadSpec::ByName("establishment,sexedu,full_demographics");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().marginals.size(), 3u);

  auto industry = WorkloadSpec::ByName("establishment,industry_sexedu");
  ASSERT_TRUE(industry.ok());
  EXPECT_EQ(industry.value().marginals[1].AllColumns(),
            (std::vector<std::string>{"naics", "ownership", "sex",
                                      "education"}));

  EXPECT_FALSE(WorkloadSpec::ByName("no_such_marginal").ok());
  EXPECT_FALSE(WorkloadSpec::ByName("establishment,,sexedu").ok());
}

TEST(WorkloadSpecTest, FusedSpecIsTheCanonicalUnion) {
  const WorkloadSpec workload{{MarginalSpec::FullDemographics(),
                               MarginalSpec::EstablishmentMarginal()}};
  const MarginalSpec fused = workload.FusedSpec();
  EXPECT_EQ(fused.workplace_attrs,
            (std::vector<std::string>{"place", "naics", "ownership"}));
  EXPECT_EQ(fused.worker_attrs,
            (std::vector<std::string>{"sex", "age", "race", "ethnicity",
                                      "education"}));

  const MarginalSpec paper_fused = WorkloadSpec::PaperTabulations().FusedSpec();
  EXPECT_EQ(paper_fused.AllColumns(),
            MarginalSpec::WorkplaceBySexEducation().AllColumns());
}

// The property of the whole engine: fused == independent, cell for cell,
// across datasets, workload shapes and thread counts.
TEST(ComputeWorkloadTest, EveryMarginalMatchesIndependentCompute) {
  const std::vector<WorkloadSpec> workloads = {
      WorkloadSpec::PaperTabulations(),
      {{MarginalSpec::FullDemographics(),
        MarginalSpec::EstablishmentMarginal()}},
      {{MarginalSpec::EstablishmentMarginal()}},
      {{MarginalSpec::FullDemographics(),
        MarginalSpec::WorkplaceBySexEducation(),
        MarginalSpec::EstablishmentMarginal(),
        // Non-prefix subset of the sexedu union: the base cells are sorted.
        MarginalSpec::IndustryBySexEducation(),
        // Permuted attribute order exercises the digit re-packing.
        MarginalSpec{{"ownership", "place"}, {"education", "sex"}}}},
  };
  for (uint64_t seed : {3u, 17u}) {
    const lodes::LodesDataset data =
        MakeDataset(seed, /*jobs=*/6000, /*places=*/12);
    for (size_t w = 0; w < workloads.size(); ++w) {
      std::vector<lodes::MarginalQuery> independent;
      for (const MarginalSpec& spec : workloads[w].marginals) {
        independent.push_back(
            lodes::MarginalQuery::Compute(data, spec).value());
      }
      int expected_cover_groups = -1;
      for (int threads : {1, 2, 4, 8}) {
        lodes::WorkloadComputeStats stats;
        auto fused = lodes::ComputeWorkload(data, workloads[w], threads,
                                            /*cache=*/nullptr, &stats);
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        ASSERT_EQ(fused.value().size(), workloads[w].marginals.size());
        // The planner splits over-wide unions into cover groups; every
        // group costs at most one scan, and the plan never scans more than
        // the independent per-marginal path would.
        EXPECT_GE(stats.cover_groups, 1)
            << "workload " << w << " threads " << threads;
        EXPECT_LE(stats.cover_groups,
                  static_cast<int>(workloads[w].marginals.size()));
        EXPECT_GE(stats.full_table_scans, 1);
        EXPECT_LE(stats.full_table_scans, stats.cover_groups);
        EXPECT_EQ(stats.rollups + stats.exact_hits,
                  static_cast<int>(workloads[w].marginals.size()));
        EXPECT_EQ(stats.prefix_merges + stats.parallel_rollups,
                  stats.rollups);
        // The planner must make the same decisions at every thread count
        // (its cost model never reads the thread count).
        if (expected_cover_groups < 0) {
          expected_cover_groups = stats.cover_groups;
        }
        EXPECT_EQ(stats.cover_groups, expected_cover_groups)
            << "workload " << w << " threads " << threads;
        for (size_t i = 0; i < independent.size(); ++i) {
          ExpectQueriesEqual(independent[i], fused.value()[i],
                             "seed=" + std::to_string(seed) + " workload=" +
                                 std::to_string(w) + " marginal=" +
                                 std::to_string(i) + " threads=" +
                                 std::to_string(threads));
        }
      }
    }
  }
}

TEST(ComputeWorkloadTest, CacheCarriesGroupingsAcrossCalls) {
  const lodes::LodesDataset data = MakeDataset(9, /*jobs=*/4000,
                                               /*places=*/8);
  table::GroupByCache cache;
  lodes::WorkloadComputeStats stats;

  ASSERT_TRUE(lodes::ComputeWorkload(data, WorkloadSpec::PaperTabulations(),
                                     1, &cache, &stats)
                  .ok());
  EXPECT_EQ(stats.full_table_scans, 1);

  // Identical workload: everything is an exact hit, zero scans.
  ASSERT_TRUE(lodes::ComputeWorkload(data, WorkloadSpec::PaperTabulations(),
                                     1, &cache, &stats)
                  .ok());
  EXPECT_EQ(stats.full_table_scans, 0);
  EXPECT_EQ(stats.exact_hits, 2);

  // An overlapping workload whose fused spec is covered by the cached
  // grouping: still zero scans — the base itself arrives by roll-up.
  const WorkloadSpec subset{{MarginalSpec{{"place", "naics"}, {"sex"}}}};
  auto fused = lodes::ComputeWorkload(data, subset, 1, &cache, &stats);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(stats.full_table_scans, 0);
  const auto direct =
      lodes::MarginalQuery::Compute(data, subset.marginals[0]).value();
  ExpectQueriesEqual(direct, fused.value()[0], "cached subset workload");
}

TEST(RunReleaseWorkloadTest, BitIdenticalToIndependentReleases) {
  const lodes::LodesDataset data = MakeDataset(21, /*jobs=*/8000,
                                               /*places=*/10);
  for (bool round_counts : {true, false}) {
    release::WorkloadReleaseConfig config;
    config.workload = WorkloadSpec::PaperTabulations();
    config.mechanism = eval::MechanismKind::kSmoothLaplace;
    config.alpha = 0.1;
    config.epsilon = 2.0;
    config.delta = 0.05;
    config.round_counts = round_counts;
    Rng independent_rng(4242);
    const std::vector<release::ReleasedTable> independent =
        ReleaseIndependently(data, config, independent_rng);
    ASSERT_EQ(independent.size(), config.workload.marginals.size());
    for (int threads : {1, 2, 4, 8}) {
      config.num_threads = threads;
      Rng fused_rng(4242);
      release::WorkloadReleaseStats stats;
      auto released = release::RunReleaseWorkload(data, config, nullptr,
                                                  fused_rng, nullptr, &stats);
      ASSERT_TRUE(released.ok()) << released.status().ToString();
      ASSERT_EQ(released.value().size(), independent.size());
      EXPECT_EQ(stats.compute.full_table_scans, 1);
      for (size_t i = 0; i < independent.size(); ++i) {
        EXPECT_EQ(released.value()[i].header, independent[i].header);
        EXPECT_EQ(released.value()[i].rows, independent[i].rows)
            << "marginal " << i << " threads " << threads;
      }
      // The caller's stream advanced exactly like two sequential
      // one-marginal releases (one root draw per marginal).
      Rng expected_rng(4242);
      expected_rng.NextUint64();
      expected_rng.NextUint64();
      EXPECT_EQ(fused_rng.NextUint64(), expected_rng.NextUint64())
          << "threads " << threads;
    }
  }
}

// The cover-group property: when the planner splits an over-wide workload
// into several fused groups, every released table must STILL be
// bit-identical to the independent path, the caller's rng must advance
// identically, and the accountant must still be charged atomically for the
// whole workload — the split is pure execution planning.
TEST(RunReleaseWorkloadTest, CoverGroupSplitKeepsBitIdentityAndCharging) {
  const lodes::LodesDataset data = MakeDataset(55, /*jobs=*/9000,
                                               /*places=*/10);
  const WorkloadSpec wide =
      WorkloadSpec::ByName(
          "establishment,industry_sexedu,sexedu,full_demographics")
          .value();

  release::WorkloadReleaseConfig config;
  config.workload = wide;
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.001;
  Rng independent_rng(777);
  const std::vector<release::ReleasedTable> independent =
      ReleaseIndependently(data, config, independent_rng);
  ASSERT_EQ(independent.size(), wide.marginals.size());

  for (int threads : {1, 2, 4, 8}) {
    config.num_threads = threads;
    Rng fused_rng(777);
    release::WorkloadReleaseStats stats;
    auto released = release::RunReleaseWorkload(data, config, nullptr,
                                                fused_rng, nullptr, &stats);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    ASSERT_EQ(released.value().size(), independent.size());
    // The all-8-attribute union is hostile at this scale, so the planner
    // must split — and must exercise BOTH roll-up paths.
    EXPECT_GE(stats.compute.cover_groups, 2) << "threads " << threads;
    EXPECT_LT(stats.compute.full_table_scans,
              static_cast<int>(wide.marginals.size()));
    EXPECT_GE(stats.compute.prefix_merges, 1);
    EXPECT_GE(stats.compute.parallel_rollups, 1);
    for (size_t i = 0; i < independent.size(); ++i) {
      EXPECT_EQ(released.value()[i].rows, independent[i].rows)
          << "marginal " << i << " threads " << threads;
    }
    Rng expected_rng(777);
    for (size_t i = 0; i < wide.marginals.size(); ++i) {
      expected_rng.NextUint64();
    }
    EXPECT_EQ(fused_rng.NextUint64(), expected_rng.NextUint64())
        << "threads " << threads;
  }

  // Atomic charging across cover groups: enough budget charges one ledger
  // entry per marginal; too little charges NOTHING even though the planner
  // runs several groups.
  // Weak-model charges: eps x (1 + 8 + 8 + 768).
  auto accountant = privacy::PrivacyAccountant::Create(
                        0.1, /*epsilon_budget=*/1600.0,
                        /*delta_budget=*/0.9,
                        privacy::AdversaryModel::kWeak)
                        .value();
  Rng rng(3);
  ASSERT_TRUE(
      release::RunReleaseWorkload(data, config, &accountant, rng).ok());
  EXPECT_EQ(accountant.ledger().size(), wide.marginals.size());
  EXPECT_DOUBLE_EQ(accountant.spent_epsilon(), 2.0 * (1 + 8 + 8 + 768));

  auto small = privacy::PrivacyAccountant::Create(
                   0.1, /*epsilon_budget=*/10.0, /*delta_budget=*/0.9,
                   privacy::AdversaryModel::kWeak)
                   .value();
  auto refused = release::RunReleaseWorkload(data, config, &small, rng);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(small.ledger().empty());
  EXPECT_DOUBLE_EQ(small.spent_epsilon(), 0.0);
}

TEST(RunReleaseWorkloadTest, ChargesEachMarginalAndRefusesMidWorkload) {
  const lodes::LodesDataset data = MakeDataset(33, /*jobs=*/3000,
                                               /*places=*/8);
  release::WorkloadReleaseConfig config;
  config.workload = WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;

  // Enough for both marginals: 2.0 + 8 x 2.0 = 18.
  auto accountant = privacy::PrivacyAccountant::Create(
                        0.1, /*epsilon_budget=*/18.0, /*delta_budget=*/0.6,
                        privacy::AdversaryModel::kWeak)
                        .value();
  Rng rng(7);
  auto released =
      release::RunReleaseWorkload(data, config, &accountant, rng);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(accountant.ledger().size(), 2u);
  EXPECT_DOUBLE_EQ(accountant.spent_epsilon(), 18.0);
  // Ledger entries name their marginal's columns.
  EXPECT_NE(accountant.ledger()[0].description.find(
                "[place,naics,ownership]"),
            std::string::npos);

  // Budget for the first marginal only: the workload is charged
  // atomically, so the refusal leaves NOTHING charged — no budget is
  // spent on tables the caller never receives.
  auto small = privacy::PrivacyAccountant::Create(
                   0.1, /*epsilon_budget=*/4.0, /*delta_budget=*/0.6,
                   privacy::AdversaryModel::kWeak)
                   .value();
  auto refused = release::RunReleaseWorkload(data, config, &small, rng);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(small.ledger().empty());
  EXPECT_DOUBLE_EQ(small.spent_epsilon(), 0.0);

  // Mismatched alpha is rejected before any charge.
  auto other_alpha = privacy::PrivacyAccountant::Create(
                         0.2, 18.0, 0.6, privacy::AdversaryModel::kWeak)
                         .value();
  auto mismatch =
      release::RunReleaseWorkload(data, config, &other_alpha, rng);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_TRUE(other_alpha.ledger().empty());
}

}  // namespace
}  // namespace eep
