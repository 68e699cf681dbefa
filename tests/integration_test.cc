// End-to-end integration checks tying the whole stack together: generator
// -> marginal engine -> SDL baseline and private mechanisms -> metrics,
// asserting the qualitative Findings of Section 10 on a scaled-down
// synthetic extract.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/workloads.h"
#include "lodes/generator.h"
#include "release/pipeline.h"

namespace eep {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lodes::GeneratorConfig config;
    config.seed = 2024;
    config.target_jobs = 60000;
    config.num_places = 60;
    data_ = new lodes::LodesDataset(
        lodes::SyntheticLodesGenerator(config).Generate().value());
  }
  static void TearDownTestSuite() { delete data_; }

  static eval::ExperimentConfig Config() {
    eval::ExperimentConfig config;
    config.trials = 5;
    config.seed = 4242;
    return config;
  }

  static lodes::LodesDataset* data_;
};

lodes::LodesDataset* IntegrationTest::data_ = nullptr;

// Finding 1: for establishment-only marginals at (eps=2, alpha=0.1), the
// formally private mechanisms are within a small factor of the legacy SDL
// (Log-Laplace / Smooth Gamma within ~3x; Smooth Laplace comparable or
// better).
TEST_F(IntegrationTest, Finding1EstablishmentMarginalCompetitive) {
  eval::Workloads workloads(data_, Config());
  eval::WorkloadGrids grids;
  grids.epsilons = {2.0};
  grids.alphas = {0.1};
  auto points = workloads.Figure1(grids).value();
  for (const auto& p : points) {
    ASSERT_TRUE(p.feasible);
    switch (p.kind) {
      case eval::MechanismKind::kSmoothLaplace:
        EXPECT_LT(p.overall, 1.5) << "Smooth Laplace should be ~SDL";
        break;
      case eval::MechanismKind::kLogLaplace:
      case eval::MechanismKind::kSmoothGamma:
        EXPECT_LT(p.overall, 5.0) << MechanismKindName(p.kind);
        break;
      default:
        break;
    }
  }
}

// Finding 4: error ratios improve as place population grows; the largest
// jump is from the smallest stratum upward.
TEST_F(IntegrationTest, Finding4RatiosImproveWithPopulation) {
  eval::Workloads workloads(data_, Config());
  eval::WorkloadGrids grids;
  grids.epsilons = {2.0};
  grids.alphas = {0.1};
  grids.kinds = {eval::MechanismKind::kSmoothLaplace};
  auto points = workloads.Figure1(grids).value();
  ASSERT_EQ(points.size(), 1u);
  const auto& strata = points[0].by_stratum;
  // Largest stratum should beat the smallest.
  EXPECT_LT(strata[3], strata[0]);
}

// Finding 5 (ranking side): ranking correlation rises with epsilon.
TEST_F(IntegrationTest, RankingImprovesWithBudget) {
  eval::Workloads workloads(data_, Config());
  eval::WorkloadGrids tight, loose;
  tight.epsilons = {0.25};
  loose.epsilons = {4.0};
  tight.alphas = loose.alphas = {0.1};
  tight.kinds = loose.kinds = {eval::MechanismKind::kSmoothLaplace};
  const double low = workloads.Figure2(tight).value()[0].overall;
  const double high = workloads.Figure2(loose).value()[0].overall;
  EXPECT_GT(high, low);
  EXPECT_GT(high, 0.9);
}

// The graph-side statistics of Section 6 hold qualitatively: a large share
// of marginal cells are far smaller than any useful truncation threshold.
TEST_F(IntegrationTest, Section6CellsSmallerThanTruncationNoise) {
  auto query = lodes::MarginalQuery::Compute(
                   *data_, lodes::MarginalSpec::EstablishmentMarginal())
                   .value();
  int64_t below_1000 = 0;
  for (const auto& cell : query.cells()) {
    if (cell.count < 1000) ++below_1000;
  }
  EXPECT_GT(static_cast<double>(below_1000) /
                static_cast<double>(query.cells().size()),
            0.9);
}

// Full pipeline: two sequential releases under one accountant, budget
// tracked, output tables well-formed, total employment approximately
// preserved by the unbiased mechanism.
TEST_F(IntegrationTest, EndToEndAgencyWorkflow) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.1, 8.0, 0.1, privacy::AdversaryModel::kInformed)
                  .value();
  Rng rng(99);

  release::WorkloadReleaseConfig config;
  config.workload = {{lodes::MarginalSpec::EstablishmentMarginal()}};
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  auto first =
      release::RunReleaseWorkload(*data_, config, &acct, rng).value()[0];

  config.mechanism = eval::MechanismKind::kSmoothGamma;
  config.delta = 0.0;
  auto second =
      release::RunReleaseWorkload(*data_, config, &acct, rng).value()[0];

  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 4.0);
  EXPECT_EQ(first.rows.size(), second.rows.size());

  int64_t released_total = 0;
  for (const auto& row : first.rows) released_total += std::stoll(row.back());
  const double true_total = static_cast<double>(data_->num_jobs());
  EXPECT_NEAR(static_cast<double>(released_total), true_total,
              0.05 * true_total);
}

// Releasing with a fresh Rng seed changes noise but not structure —
// and the true counts never appear verbatim across two large releases
// (sanity check against accidental identity release).
TEST_F(IntegrationTest, NoisyReleasesDiffer) {
  release::WorkloadReleaseConfig config;
  config.workload = {{lodes::MarginalSpec::EstablishmentMarginal()}};
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  config.round_counts = false;
  Rng rng1(1), rng2(2);
  auto a =
      release::RunReleaseWorkload(*data_, config, nullptr, rng1).value()[0];
  auto b =
      release::RunReleaseWorkload(*data_, config, nullptr, rng2).value()[0];
  int differing = 0;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].back() != b.rows[i].back()) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(a.rows.size() / 2));
}

}  // namespace
}  // namespace eep
