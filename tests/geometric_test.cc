#include "mechanisms/geometric.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace eep::mechanisms {
namespace {

privacy::PrivacyParams Params(double alpha, double eps, double delta) {
  return {alpha, eps, delta};
}

TEST(GeometricMechanismTest, SameFeasibilityAsSmoothLaplace) {
  EXPECT_FALSE(GeometricMechanism::Create(Params(0.1, 2.0, 0.0)).ok());
  EXPECT_TRUE(GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).ok());
  EXPECT_FALSE(GeometricMechanism::Create(Params(0.2, 0.5, 0.05)).ok());
}

TEST(GeometricMechanismTest, IntegerOutputs) {
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  CellQuery cell{100, 40, nullptr};
  std::vector<double> out;
  Rng rng(71);
  ASSERT_TRUE(
      mech.ReleaseBatch(std::vector<CellQuery>(1000, cell), rng, &out).ok());
  for (const double v : out) {
    EXPECT_EQ(v, std::round(v)) << "released value must be integral";
  }
}

TEST(GeometricMechanismTest, GeometricParameterMatchesScale) {
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  // scale = 2 * max(alpha x_v, 1) / eps = 2*10/2 = 10 -> p = e^{-1/10}.
  CellQuery cell{500, 100, nullptr};
  EXPECT_NEAR(mech.GeometricParameter(cell).value(), std::exp(-0.1), 1e-12);
}

TEST(GeometricMechanismTest, UnbiasedWithMatchingL1) {
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  CellQuery cell{250, 80, nullptr};
  const double expected = mech.ExpectedL1Error(cell).value();
  std::vector<double> out;
  Rng rng(73);
  ASSERT_TRUE(mech.ReleaseBatch(std::vector<CellQuery>(300000, cell), rng,
                                &out)
                  .ok());
  RunningStats stats, err;
  for (const double v : out) {
    stats.Add(v);
    err.Add(std::abs(v - 250.0));
  }
  EXPECT_NEAR(stats.mean(), 250.0, 0.5);
  EXPECT_NEAR(err.mean(), expected, expected * 0.02);
}

TEST(GeometricMechanismTest, TracksContinuousCounterpartError) {
  // The integer mechanism's expected error approaches the continuous
  // Laplace scale for large scales: 2p/(1-p^2) -> scale as p -> 1.
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  CellQuery cell{100000, 10000, nullptr};  // scale = 1000
  EXPECT_NEAR(mech.ExpectedL1Error(cell).value(), 1000.0, 1.0);
}

TEST(GeometricMechanismTest, RejectsNegativeCount) {
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  std::vector<double> out;
  Rng rng(79);
  EXPECT_FALSE(mech.ReleaseBatch({{-3, 0, nullptr}}, rng, &out).ok());
}

TEST(GeometricMechanismTest, DegenerateParameterIsAnErrorNotInf) {
  // Regression: with x_v large enough that scale = alpha*x_v/(eps/2) pushes
  // p = exp(-1/scale) to 1.0 within one ulp, GeometricParameter used to
  // return p == 1 and ExpectedL1Error's 2p/(1-p^2) evaluated to inf (and
  // the sampler's 1/ln(p) to -inf). The mechanism.h contract maps such
  // unbounded values to an error status.
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  const CellQuery cell{100, int64_t{1} << 60, nullptr};
  EXPECT_EQ(mech.GeometricParameter(cell).status().code(),
            StatusCode::kOutOfRange);
  std::vector<double> out;
  Rng rng(81);
  EXPECT_EQ(mech.ReleaseBatch({cell}, rng, &out).code(),
            StatusCode::kOutOfRange);
  const auto err = mech.ExpectedL1Error(cell);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(GeometricMechanismTest, HugeButBoundedParameterStaysFinite) {
  // Just below the degenerate region the error formula must stay finite.
  auto mech = GeometricMechanism::Create(Params(0.1, 2.0, 0.05)).value();
  const CellQuery cell{100, int64_t{10'000'000'000'000}, nullptr};
  const double p = mech.GeometricParameter(cell).value();
  EXPECT_LT(p, 1.0);
  const double err = mech.ExpectedL1Error(cell).value();
  EXPECT_TRUE(std::isfinite(err));
  // 2p/(1-p^2) -> scale = alpha * x_v as p -> 1.
  EXPECT_NEAR(err, 1e12, 1e9);
}

}  // namespace
}  // namespace eep::mechanisms
