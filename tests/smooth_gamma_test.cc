#include "mechanisms/smooth_gamma.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace eep::mechanisms {
namespace {

privacy::PrivacyParams Params(double alpha, double eps) {
  return {alpha, eps, 0.0};
}

// `n` releases of one cell, drawn as one batch.
std::vector<double> ReleaseN(const CountMechanism& mech, const CellQuery& cell,
                             int n, Rng& rng) {
  std::vector<double> out;
  EXPECT_TRUE(
      mech.ReleaseBatch(std::vector<CellQuery>(n, cell), rng, &out).ok());
  return out;
}

TEST(SmoothGammaTest, CreateEnforcesFeasibility) {
  // alpha + 1 < e^{eps/5}: at alpha = 0.1 need eps > 0.4766.
  EXPECT_FALSE(SmoothGammaMechanism::Create(Params(0.1, 0.4)).ok());
  EXPECT_TRUE(SmoothGammaMechanism::Create(Params(0.1, 2.0)).ok());
  EXPECT_FALSE(SmoothGammaMechanism::Create(Params(0.2, 0.9)).ok());
  EXPECT_TRUE(SmoothGammaMechanism::Create(Params(0.2, 1.0)).ok());
}

TEST(SmoothGammaTest, BudgetSplit) {
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  EXPECT_NEAR(mech.epsilon2(), 5.0 * std::log(1.1), 1e-12);
  EXPECT_NEAR(mech.epsilon1(), 2.0 - 5.0 * std::log(1.1), 1e-12);
  EXPECT_EQ(mech.name(), "Smooth Gamma");
}

TEST(SmoothGammaTest, NoiseScaleFollowsSmoothSensitivity) {
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  // S* = max(alpha * x_v, 1); scale = 5 S* / eps1.
  const double eps1 = mech.epsilon1();
  EXPECT_NEAR(mech.NoiseScale({1000, 200, nullptr}).value(),
              5.0 * 20.0 / eps1, 1e-9);
  EXPECT_NEAR(mech.NoiseScale({1000, 5, nullptr}).value(), 5.0 / eps1,
              1e-9);
}

// Tolerance audit: the sampled-moment bounds below sit at >= 11 sigma of
// the estimator noise (GeneralizedCauchy4 has unit variance, so the mean
// estimator's sigma is scale/sqrt(n)); safe against stream changes.
TEST(SmoothGammaTest, UnbiasedRelease) {
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  CellQuery cell{300, 100, nullptr};
  Rng rng(37);
  RunningStats stats;
  for (const double v : ReleaseN(mech, cell, 300000, rng)) stats.Add(v);
  EXPECT_NEAR(stats.mean(), 300.0, 1.0);
}

TEST(SmoothGammaTest, ExpectedL1MatchesEmpirical) {
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  CellQuery cell{300, 100, nullptr};
  const double expected = mech.ExpectedL1Error(cell).value();
  Rng rng(41);
  RunningStats err;
  for (const double v : ReleaseN(mech, cell, 300000, rng)) {
    err.Add(std::abs(v - 300.0));
  }
  EXPECT_NEAR(err.mean(), expected, expected * 0.02);
}

TEST(SmoothGammaTest, ErrorLinearInXvTimesAlpha) {
  // Lemma 8.8: expected error O(x_v alpha / eps). Doubling x_v doubles the
  // error (above the floor); the total count is irrelevant.
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  const double e1 = mech.ExpectedL1Error({100000, 100, nullptr}).value();
  const double e2 = mech.ExpectedL1Error({100000, 200, nullptr}).value();
  const double e3 = mech.ExpectedL1Error({500, 200, nullptr}).value();
  EXPECT_NEAR(e2, 2.0 * e1, 1e-9);
  EXPECT_EQ(e2, e3);
}

TEST(SmoothGammaTest, MoreBudgetLessError) {
  auto tight = SmoothGammaMechanism::Create(Params(0.1, 1.0)).value();
  auto loose = SmoothGammaMechanism::Create(Params(0.1, 4.0)).value();
  CellQuery cell{1000, 500, nullptr};
  EXPECT_GT(tight.ExpectedL1Error(cell).value(),
            loose.ExpectedL1Error(cell).value());
}

TEST(SmoothGammaTest, RejectsNegativeCount) {
  auto mech = SmoothGammaMechanism::Create(Params(0.1, 2.0)).value();
  std::vector<double> out;
  Rng rng(43);
  EXPECT_FALSE(mech.ReleaseBatch({{-5, 0, nullptr}}, rng, &out).ok());
}

}  // namespace
}  // namespace eep::mechanisms
