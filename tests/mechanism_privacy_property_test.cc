// Property-based verification that each mechanism satisfies the privacy
// inequality it claims, over a grid of (alpha, epsilon) parameters and a
// set of strong alpha-neighbor scenarios:
//
//  * Pure mechanisms (Log-Laplace, Smooth Gamma): the pointwise output-
//    density ratio between neighbors must be bounded by e^epsilon
//    everywhere (sufficient for Def. 7.2).
//  * Approximate mechanisms (Smooth Laplace): the "violation mass"
//    integral of max(0, f1 - e^eps f2) must be at most delta — the exact
//    characterization of (eps, delta)-indistinguishability for
//    density-valued outputs (Def. 9.1).
//
// Those checks are analytic: they bound the law each mechanism claims.
// The goodness-of-fit tests at the end bind ReleaseBatch, the one sampler
// every release runs, to that law, and the Monte-Carlo pairs sample it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/distributions.h"
#include "mechanisms/geometric.h"
#include "mechanisms/laplace.h"
#include "mechanisms/log_laplace.h"
#include "mechanisms/smooth_gamma.h"
#include "mechanisms/smooth_laplace.h"
#include "mechanisms/truncated_laplace.h"
#include "privacy/verification.h"

namespace eep::mechanisms {
namespace {

struct GridPoint {
  double alpha;
  double epsilon;
};

// One strong alpha-neighbor move applied to a cell: D has (count, x_v); D'
// has (count2, x_v2).
struct NeighborScenario {
  const char* name;
  int64_t count;
  int64_t x_v;
  int64_t count2;
  int64_t x_v2;
};

std::vector<NeighborScenario> Scenarios(double alpha) {
  // Dominant establishment grows by its full alpha-band; a one-worker
  // change; a non-dominant establishment change that leaves x_v fixed.
  const int64_t xv = 500;
  const auto grow = static_cast<int64_t>(std::floor((1.0 + alpha) * xv));
  return {
      {"dominant-grows", 1000, xv, 1000 + (grow - xv), grow},
      {"plus-one-worker", 1000, xv, 1001, xv},
      {"empty-cell-gains-one", 0, 0, 1, 1},
      {"nondominant-grows", 1000, xv,
       1000 + static_cast<int64_t>(std::floor(alpha * 300.0)), xv},
  };
}

// Violation mass: integral over outputs of max(0, f1 - e^eps f2), where
// f_i is Laplace(center_i, scale_i). Must be <= delta for an
// (eps, delta) guarantee.
double LaplaceViolationMass(double q1, double s1, double q2, double s2,
                            double eps) {
  auto lap1 = LaplaceDistribution::Create(s1).value();
  auto lap2 = LaplaceDistribution::Create(s2).value();
  const double lo = std::min(q1, q2) - 80.0 * std::max(s1, s2);
  const double hi = std::max(q1, q2) + 80.0 * std::max(s1, s2);
  const int n = 400001;
  const double step = (hi - lo) / (n - 1);
  double mass = 0.0;
  const double boost = std::exp(eps);
  for (int i = 0; i < n; ++i) {
    const double o = lo + i * step;
    const double f1 = lap1.Pdf(o - q1);
    const double f2 = lap2.Pdf(o - q2);
    mass += std::max(0.0, f1 - boost * f2) * step;
  }
  return mass;
}

class MechanismPrivacyTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(MechanismPrivacyTest, LogLaplaceDensityRatioBounded) {
  const auto [alpha, epsilon] = GetParam();
  auto mech =
      LogLaplaceMechanism::Create({alpha, epsilon, 0.0}).value();
  auto lap = LaplaceDistribution::Create(1.0).value();
  auto pdf = [&lap](double z) { return lap.Pdf(z); };
  const double gamma = mech.gamma();
  const double lambda = mech.lambda();
  for (const auto& sc : Scenarios(alpha)) {
    // The mechanism is Laplace noise on the log scale; outputs are a
    // monotone transform, so the log-space ratio equals the output-space
    // ratio.
    const double c1 = std::log(static_cast<double>(sc.count) + gamma);
    const double c2 = std::log(static_cast<double>(sc.count2) + gamma);
    auto check = privacy::CheckAdditivePair(pdf, c1, lambda, c2, lambda,
                                            epsilon);
    EXPECT_TRUE(check.passed)
        << sc.name << ": log ratio " << check.max_log_ratio << " > "
        << epsilon;
  }
}

TEST_P(MechanismPrivacyTest, SmoothGammaDensityRatioBounded) {
  const auto [alpha, epsilon] = GetParam();
  privacy::PrivacyParams params{alpha, epsilon, 0.0};
  auto created = SmoothGammaMechanism::Create(params);
  if (!created.ok()) GTEST_SKIP() << "infeasible grid point";
  auto mech = created.value();
  GeneralizedCauchy4 noise;
  auto pdf = [&noise](double z) { return noise.Pdf(z); };
  for (const auto& sc : Scenarios(alpha)) {
    const double s1 = mech.NoiseScale({sc.count, sc.x_v, nullptr}).value();
    const double s2 =
        mech.NoiseScale({sc.count2, sc.x_v2, nullptr}).value();
    auto check = privacy::CheckAdditivePair(
        pdf, static_cast<double>(sc.count), s1,
        static_cast<double>(sc.count2), s2, epsilon);
    EXPECT_TRUE(check.passed)
        << sc.name << ": log ratio " << check.max_log_ratio << " > "
        << epsilon;
    // And symmetrically.
    auto check_rev = privacy::CheckAdditivePair(
        pdf, static_cast<double>(sc.count2), s2,
        static_cast<double>(sc.count), s1, epsilon);
    EXPECT_TRUE(check_rev.passed) << sc.name << " (reversed)";
  }
}

TEST_P(MechanismPrivacyTest, SmoothLaplaceViolationMassWithinDelta) {
  const auto [alpha, epsilon] = GetParam();
  const double delta = 0.05;
  privacy::PrivacyParams params{alpha, epsilon, delta};
  auto created = SmoothLaplaceMechanism::Create(params);
  if (!created.ok()) GTEST_SKIP() << "infeasible grid point";
  auto mech = created.value();
  for (const auto& sc : Scenarios(alpha)) {
    const double s1 = mech.NoiseScale({sc.count, sc.x_v, nullptr}).value();
    const double s2 =
        mech.NoiseScale({sc.count2, sc.x_v2, nullptr}).value();
    const double mass1 = LaplaceViolationMass(
        static_cast<double>(sc.count), s1,
        static_cast<double>(sc.count2), s2, epsilon);
    const double mass2 = LaplaceViolationMass(
        static_cast<double>(sc.count2), s2,
        static_cast<double>(sc.count), s1, epsilon);
    EXPECT_LE(mass1, delta + 1e-4) << sc.name;
    EXPECT_LE(mass2, delta + 1e-4) << sc.name << " (reversed)";
  }
}

// One draw for `cell` through a one-cell batch.
double ReleaseOne(const CountMechanism& mech, const CellQuery& cell,
                  Rng& rng) {
  std::vector<double> out;
  EXPECT_TRUE(mech.ReleaseBatch({cell}, rng, &out).ok());
  return out.empty() ? std::nan("") : out[0];
}

// Monte-Carlo cross-check on one representative point: actual sampled
// outputs of neighbor databases are (eps, delta)-indistinguishable.
// Tolerance audit: both checks passed for 100/100 alternative seeds, so
// they are robust to upstream RNG stream changes, not just to these seeds.
TEST(MechanismPrivacyMonteCarloTest, SmoothLaplaceSampledPair) {
  privacy::PrivacyParams params{0.1, 2.0, 0.05};
  auto mech = SmoothLaplaceMechanism::Create(params).value();
  Rng rng(83);
  auto mech1 = [&mech](Rng& r) {
    return ReleaseOne(mech, {1000, 500, nullptr}, r);
  };
  auto mech2 = [&mech](Rng& r) {
    return ReleaseOne(mech, {1050, 550, nullptr}, r);
  };
  auto result =
      privacy::CheckMonteCarloPair(mech1, mech2, 2.0, 0.05, 60000, 25, rng);
  EXPECT_TRUE(result.passed);
}

TEST(MechanismPrivacyMonteCarloTest, SmoothGammaSampledPair) {
  privacy::PrivacyParams params{0.1, 2.0, 0.0};
  auto mech = SmoothGammaMechanism::Create(params).value();
  Rng rng(89);
  auto mech1 = [&mech](Rng& r) {
    return ReleaseOne(mech, {1000, 500, nullptr}, r);
  };
  auto mech2 = [&mech](Rng& r) {
    return ReleaseOne(mech, {1050, 550, nullptr}, r);
  };
  auto result =
      privacy::CheckMonteCarloPair(mech1, mech2, 2.0, 0.0, 60000, 25, rng);
  EXPECT_TRUE(result.passed);
}

// ---------------------------------------------------------------------------
// Goodness of fit: ReleaseBatch draws the law the checks above bound. Each
// test releases kFitDraws cells in one batch, normalizes every draw by its
// cell's analytic noise scale, and bounds the Kolmogorov-Smirnov distance
// to the law by 2.5/sqrt(n) = 0.0177: a correct sampler exceeds it with
// probability ~1e-5 (the worst of 200 seeds read 0.0127), while noise
// halved inside a sampler reads 0.13-0.17 and noise at 0.9x 0.022-0.028.
// The Monte-Carlo pairs above still pass with the noise halved (their
// 25-bin log ratios stay under eps = 2), so they cannot stand in for this.
// ---------------------------------------------------------------------------

constexpr size_t kFitDraws = 20000;

// sup_x |F_n(x) - F(x)| for the sample `z` against a law with CDF `cdf`;
// `cdf_below` is its left limit, equal to `cdf` for a continuous law.
double KsDistance(std::vector<double> z,
                  const std::function<double(double)>& cdf,
                  const std::function<double(double)>& cdf_below) {
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (size_t i = 0; i < z.size();) {
    size_t j = i;
    while (j < z.size() && z[j] == z[i]) ++j;  // Ties share one step.
    d = std::max({d, std::abs(static_cast<double>(j) / n - cdf(z[i])),
                  std::abs(static_cast<double>(i) / n - cdf_below(z[i]))});
    i = j;
  }
  return d;
}

double KsDistance(std::vector<double> z,
                  const std::function<double(double)>& cdf) {
  return KsDistance(std::move(z), cdf, cdf);
}

const double kKsBound = 2.5 / std::sqrt(static_cast<double>(kFitDraws));

// kFitDraws cells cycling through four cells from empty to large, so each
// draw is normalized by its own cell's scale (the floor of 1 included).
// Establishment 3 is the only one above Truncated Laplace's theta = 500.
std::vector<CellQuery> FitCells() {
  static const std::vector<table::EstabContribution> small = {{5, 5},
                                                              {6, 2}};
  static const std::vector<table::EstabContribution> mid = {
      {1, 400}, {2, 300}, {3, 534}};
  static const std::vector<table::EstabContribution> large = [] {
    std::vector<table::EstabContribution> hundred;
    for (int64_t id = 100; id < 200; ++id) hundred.push_back({id, 250});
    return hundred;
  }();
  const CellQuery kinds[] = {{0, 0, nullptr},
                             {7, 5, &small},
                             {1234, 534, &mid},
                             {25000, 250, &large}};
  std::vector<CellQuery> cells(kFitDraws);
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = kinds[i % 4];
  return cells;
}

std::vector<double> ReleaseAll(const CountMechanism& mech,
                               const std::vector<CellQuery>& cells,
                               uint64_t seed) {
  std::vector<double> out;
  Rng rng(seed);
  EXPECT_TRUE(mech.ReleaseBatch(cells, rng, &out).ok()) << mech.name();
  EXPECT_EQ(out.size(), cells.size()) << mech.name();
  return out;
}

double UnitLaplaceCdf(double z) {
  return LaplaceDistribution::Create(1.0).value().Cdf(z);
}

TEST(MechanismGoodnessOfFitTest, EdgeLaplaceDrawsLaplace) {
  auto mech = EdgeLaplaceMechanism::Create(0.5).value();
  const auto cells = FitCells();
  std::vector<double> z = ReleaseAll(mech, cells, 101);
  for (size_t i = 0; i < z.size(); ++i) {
    z[i] = (z[i] - static_cast<double>(cells[i].true_count)) / mech.scale();
  }
  EXPECT_LT(KsDistance(z, UnitLaplaceCdf), kKsBound);
}

TEST(MechanismGoodnessOfFitTest, SmoothLaplaceDrawsLaplace) {
  auto mech = SmoothLaplaceMechanism::Create({0.1, 2.0, 0.05}).value();
  const auto cells = FitCells();
  std::vector<double> z = ReleaseAll(mech, cells, 103);
  for (size_t i = 0; i < z.size(); ++i) {
    z[i] = (z[i] - static_cast<double>(cells[i].true_count)) /
           mech.NoiseScale(cells[i]).value();
  }
  EXPECT_LT(KsDistance(z, UnitLaplaceCdf), kKsBound);
}

TEST(MechanismGoodnessOfFitTest, TruncatedLaplaceDrawsLaplace) {
  auto mech = TruncatedLaplaceMechanism::Create(500, 1.0, {3}).value();
  const auto cells = FitCells();
  std::vector<double> z = ReleaseAll(mech, cells, 107);
  for (size_t i = 0; i < z.size(); ++i) {
    const int64_t kept = mech.TruncatedCount(cells[i]).value();
    z[i] = (z[i] - static_cast<double>(kept)) / mech.scale();
  }
  EXPECT_LT(KsDistance(z, UnitLaplaceCdf), kKsBound);
}

TEST(MechanismGoodnessOfFitTest, LogLaplaceDrawsLaplaceOnTheLogScale) {
  auto mech = LogLaplaceMechanism::Create({0.1, 2.0, 0.0}).value();
  const auto cells = FitCells();
  std::vector<double> z = ReleaseAll(mech, cells, 109);
  for (size_t i = 0; i < z.size(); ++i) {
    const double shifted =
        static_cast<double>(cells[i].true_count) + mech.gamma();
    z[i] = std::log((z[i] + mech.gamma()) / shifted) / mech.lambda();
  }
  EXPECT_LT(KsDistance(z, UnitLaplaceCdf), kKsBound);
}

TEST(MechanismGoodnessOfFitTest, SmoothGammaDrawsGeneralizedCauchy4) {
  auto mech = SmoothGammaMechanism::Create({0.1, 2.0, 0.0}).value();
  const auto cells = FitCells();
  std::vector<double> z = ReleaseAll(mech, cells, 113);
  for (size_t i = 0; i < z.size(); ++i) {
    z[i] = (z[i] - static_cast<double>(cells[i].true_count)) /
           mech.NoiseScale(cells[i]).value();
  }
  const GeneralizedCauchy4 law;
  EXPECT_LT(KsDistance(z, [&law](double x) { return law.Cdf(x); }),
            kKsBound);
}

TEST(MechanismGoodnessOfFitTest, GeometricDrawsTwoSidedGeometric) {
  // One cell: the integer law cannot be normalized across scales. Its
  // noise k = G1 - G2 with Pr[G >= j] = p^j has CDF p^{-k}/(1+p) below 0
  // and 1 - p^{k+1}/(1+p) from 0 up.
  auto mech = GeometricMechanism::Create({0.1, 2.0, 0.05}).value();
  const CellQuery cell{1234, 534, nullptr};
  const double p = mech.GeometricParameter(cell).value();
  std::vector<double> k =
      ReleaseAll(mech, std::vector<CellQuery>(kFitDraws, cell), 127);
  for (double& v : k) v -= static_cast<double>(cell.true_count);
  auto cdf = [p](double x) {
    return x < 0.0 ? std::pow(p, -x) / (1.0 + p)
                   : 1.0 - std::pow(p, x + 1.0) / (1.0 + p);
  };
  auto cdf_below = [&cdf](double x) { return cdf(x - 1.0); };
  EXPECT_LT(KsDistance(k, cdf, cdf_below), kKsBound);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaEpsilonGrid, MechanismPrivacyTest,
    ::testing::Values(GridPoint{0.01, 0.5}, GridPoint{0.05, 1.0},
                      GridPoint{0.1, 1.0}, GridPoint{0.1, 2.0},
                      GridPoint{0.15, 2.0}, GridPoint{0.2, 4.0}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "alpha%d_eps%d",
                    static_cast<int>(info.param.alpha * 100),
                    static_cast<int>(info.param.epsilon * 100));
      return std::string(buf);
    });

}  // namespace
}  // namespace eep::mechanisms
