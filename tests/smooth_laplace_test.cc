#include "mechanisms/smooth_laplace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "privacy/parameters.h"

namespace eep::mechanisms {
namespace {

privacy::PrivacyParams Params(double alpha, double eps, double delta) {
  return {alpha, eps, delta};
}

TEST(SmoothLaplaceTest, CreateEnforcesFeasibility) {
  EXPECT_FALSE(SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.0)).ok());
  EXPECT_TRUE(SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).ok());
  // Below the Table 2 minimum epsilon: infeasible.
  const double min_eps =
      privacy::MinEpsilonForSmoothLaplace(0.1, 0.05).value();
  EXPECT_FALSE(
      SmoothLaplaceMechanism::Create(Params(0.1, min_eps * 0.9, 0.05)).ok());
}

TEST(SmoothLaplaceTest, SmoothingParameter) {
  auto mech = SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  EXPECT_NEAR(mech.smoothing(), 2.0 / (2.0 * std::log(20.0)), 1e-12);
  EXPECT_EQ(mech.name(), "Smooth Laplace");
}

TEST(SmoothLaplaceTest, NoiseScaleIsTwoSStarOverEpsilon) {
  auto mech = SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  EXPECT_NEAR(mech.NoiseScale({500, 200, nullptr}).value(),
              2.0 * 20.0 / 2.0, 1e-9);
  EXPECT_NEAR(mech.NoiseScale({500, 3, nullptr}).value(), 1.0, 1e-9);
}

TEST(SmoothLaplaceTest, UnbiasedWithMatchingL1) {
  auto mech = SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  CellQuery cell{400, 150, nullptr};
  const double expected_l1 = mech.ExpectedL1Error(cell).value();
  std::vector<double> out;
  Rng rng(47);
  ASSERT_TRUE(mech.ReleaseBatch(std::vector<CellQuery>(300000, cell), rng,
                                &out)
                  .ok());
  RunningStats stats, err;
  for (const double v : out) {
    stats.Add(v);
    err.Add(std::abs(v - 400.0));
  }
  EXPECT_NEAR(stats.mean(), 400.0, 0.5);
  EXPECT_NEAR(err.mean(), expected_l1, expected_l1 * 0.02);
}

TEST(SmoothLaplaceTest, ErrorIndependentOfDelta) {
  // Section 9 / Finding: delta gates feasibility but not accuracy.
  auto loose =
      SmoothLaplaceMechanism::Create(Params(0.1, 3.0, 0.05)).value();
  auto tight =
      SmoothLaplaceMechanism::Create(Params(0.1, 3.0, 5e-4)).value();
  CellQuery cell{1000, 300, nullptr};
  EXPECT_DOUBLE_EQ(loose.ExpectedL1Error(cell).value(),
                   tight.ExpectedL1Error(cell).value());
}

TEST(SmoothLaplaceTest, BeatsSmoothGammaScaleAtSameBudget) {
  // The delta relaxation buys a smaller noise multiplier: 2/eps vs
  // 5/eps1 per unit of smooth sensitivity.
  auto mech = SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  CellQuery cell{1000, 300, nullptr};
  // Scale = 2 * 30 / 2 = 30; Smooth Gamma would use 5*30/eps1 ~ 98.
  EXPECT_NEAR(mech.NoiseScale(cell).value(), 30.0, 1e-9);
}

TEST(SmoothLaplaceTest, RejectsNegativeCount) {
  auto mech = SmoothLaplaceMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  std::vector<double> out;
  Rng rng(53);
  EXPECT_FALSE(mech.ReleaseBatch({{-1, 0, nullptr}}, rng, &out).ok());
}

}  // namespace
}  // namespace eep::mechanisms
