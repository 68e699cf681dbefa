#include "mechanisms/log_laplace.h"

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

TEST(LogLaplaceTest, CreateValidation) {
  EXPECT_TRUE(LogLaplaceMechanism::Create(Params(0.1, 2.0)).ok());
  EXPECT_FALSE(LogLaplaceMechanism::Create(Params(0.0, 2.0)).ok());
  EXPECT_FALSE(LogLaplaceMechanism::Create(Params(0.1, 0.0)).ok());
}

TEST(LogLaplaceTest, LambdaAndGamma) {
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 2.0)).value();
  EXPECT_NEAR(mech.lambda(), std::log(1.1), 1e-12);
  EXPECT_DOUBLE_EQ(mech.gamma(), 10.0);
  EXPECT_TRUE(mech.HasBoundedExpectation());
}

TEST(LogLaplaceTest, UnboundedExpectationDetected) {
  // lambda = 2 ln(1.2)/0.3 = 1.215 >= 1.
  auto mech = LogLaplaceMechanism::Create(Params(0.2, 0.3)).value();
  EXPECT_FALSE(mech.HasBoundedExpectation());
  // Debias requires bounded expectation.
  EXPECT_FALSE(LogLaplaceMechanism::Create(Params(0.2, 0.3), true).ok());
}

TEST(LogLaplaceTest, BiasMatchesLemma82) {
  // E[x~] + gamma = (x + gamma) / (1 - lambda^2).
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 1.0)).value();
  const double lambda = mech.lambda();
  ASSERT_LT(lambda, 1.0);
  CellQuery cell{500, 500, nullptr};
  Rng rng(13);
  RunningStats stats;
  for (const double v : ReleaseN(mech, cell, 400000, rng)) stats.Add(v);
  const double expected =
      (500.0 + mech.gamma()) / (1.0 - lambda * lambda) - mech.gamma();
  EXPECT_NEAR(stats.mean(), expected, expected * 0.01);
}

TEST(LogLaplaceTest, DebiasRemovesLemma82Bias) {
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 1.0), true).value();
  CellQuery cell{500, 500, nullptr};
  Rng rng(17);
  RunningStats stats;
  for (const double v : ReleaseN(mech, cell, 400000, rng)) stats.Add(v);
  EXPECT_NEAR(stats.mean(), 500.0, 5.0);
  EXPECT_EQ(mech.name(), "Log-Laplace (debiased)");
}

TEST(LogLaplaceTest, SquaredRelativeErrorBoundHolds) {
  // Theorem 8.3: E[(x - x~)^2 / x^2] <= bound, for lambda < 1/2.
  auto mech = LogLaplaceMechanism::Create(Params(0.05, 2.0)).value();
  ASSERT_LT(mech.lambda(), 0.5);
  const double bound = mech.SquaredRelativeErrorBound().value();
  CellQuery cell{1000, 1000, nullptr};
  Rng rng(19);
  RunningStats sq_rel;
  for (const double v : ReleaseN(mech, cell, 200000, rng)) {
    const double rel = (v - 1000.0) / 1000.0;
    sq_rel.Add(rel * rel);
  }
  EXPECT_LE(sq_rel.mean(), bound);
}

TEST(LogLaplaceTest, BoundUnavailableForLargeLambda) {
  auto mech = LogLaplaceMechanism::Create(Params(0.2, 0.5)).value();
  ASSERT_GE(mech.lambda(), 0.5);
  EXPECT_FALSE(mech.SquaredRelativeErrorBound().ok());
  EXPECT_FALSE(mech.ExpectedL1Error({100, 100, nullptr}).ok());
}

TEST(LogLaplaceTest, ErrorScalesWithCount) {
  // Multiplicative noise: absolute error grows with the cell total (the
  // qualitative difference from the smooth-sensitivity mechanisms).
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 2.0)).value();
  Rng rng(23);
  auto avg_error = [&](int64_t count) {
    const CellQuery cell{count, count, nullptr};
    RunningStats err;
    for (const double v : ReleaseN(mech, cell, 20000, rng)) {
      err.Add(std::abs(v - static_cast<double>(count)));
    }
    return err.mean();
  };
  EXPECT_GT(avg_error(10000), 5.0 * avg_error(100));
}

TEST(LogLaplaceTest, RejectsNegativeCount) {
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 2.0)).value();
  std::vector<double> out;
  Rng rng(29);
  EXPECT_FALSE(mech.ReleaseBatch({{-1, 0, nullptr}}, rng, &out).ok());
}

TEST(LogLaplaceTest, ReleaseNeverBelowNegativeGamma) {
  auto mech = LogLaplaceMechanism::Create(Params(0.1, 1.0)).value();
  Rng rng(31);
  for (const double v : ReleaseN(mech, {0, 0, nullptr}, 10000, rng)) {
    EXPECT_GT(v, -mech.gamma());
  }
}

}  // namespace
}  // namespace eep::mechanisms
