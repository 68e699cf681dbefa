#include "mechanisms/truncated_laplace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace eep::mechanisms {
namespace {

// `n` releases of one cell, drawn as one batch.
std::vector<double> ReleaseN(const CountMechanism& mech, const CellQuery& cell,
                             int n, Rng& rng) {
  std::vector<double> out;
  EXPECT_TRUE(
      mech.ReleaseBatch(std::vector<CellQuery>(n, cell), rng, &out).ok());
  return out;
}

TEST(TruncatedLaplaceTest, CreateValidation) {
  EXPECT_FALSE(TruncatedLaplaceMechanism::Create(0, 1.0, {}).ok());
  EXPECT_FALSE(TruncatedLaplaceMechanism::Create(10, 0.0, {}).ok());
  EXPECT_TRUE(TruncatedLaplaceMechanism::Create(10, 1.0, {}).ok());
}

TEST(TruncatedLaplaceTest, ScaleIsThetaOverEpsilon) {
  auto mech = TruncatedLaplaceMechanism::Create(100, 2.0, {}).value();
  EXPECT_DOUBLE_EQ(mech.scale(), 50.0);
  EXPECT_EQ(mech.theta(), 100);
}

TEST(TruncatedLaplaceTest, TruncatedCountDropsRemovedEstablishments) {
  auto mech = TruncatedLaplaceMechanism::Create(10, 1.0, {7}).value();
  std::vector<table::EstabContribution> contribs = {{5, 4}, {7, 2000}, {9, 6}};
  CellQuery cell{2010, 2000, contribs};
  EXPECT_EQ(mech.TruncatedCount(cell).value(), 10);
}

TEST(TruncatedLaplaceTest, RequiresContributionsForNonEmptyCells) {
  auto mech = TruncatedLaplaceMechanism::Create(10, 1.0, {}).value();
  std::vector<double> out;
  Rng rng(59);
  EXPECT_FALSE(mech.ReleaseBatch({{5, 5, nullptr}}, rng, &out).ok());
  // Empty cells are fine without contributions.
  EXPECT_TRUE(mech.ReleaseBatch({{0, 0, nullptr}}, rng, &out).ok());
  // A given breakdown that is empty is not an absent one: nothing is kept.
  const std::vector<table::EstabContribution> none;
  EXPECT_EQ(mech.TruncatedCount({5, 5, none}).value(), 0);
}

TEST(TruncatedLaplaceTest, BiasDominatedByRemovedEmployment) {
  // Finding 6: the projection bias on cells containing large
  // establishments does not shrink as epsilon grows.
  auto mech = TruncatedLaplaceMechanism::Create(100, 4.0, {1}).value();
  std::vector<table::EstabContribution> contribs = {{1, 5000}, {2, 50}};
  CellQuery cell{5050, 5000, contribs};
  Rng rng(61);
  RunningStats err;
  for (const double v : ReleaseN(mech, cell, 50000, rng)) {
    err.Add(std::abs(v - 5050.0));
  }
  EXPECT_GT(err.mean(), 4990.0);  // essentially the removed 5000 jobs
  EXPECT_NEAR(err.mean(), mech.ExpectedL1Error(cell).value(),
              mech.ExpectedL1Error(cell).value() * 0.02);
}

TEST(TruncatedLaplaceTest, UnbiasedWhenNothingRemoved) {
  auto mech = TruncatedLaplaceMechanism::Create(100, 1.0, {}).value();
  std::vector<table::EstabContribution> contribs = {{1, 40}, {2, 50}};
  CellQuery cell{90, 50, contribs};
  Rng rng(67);
  RunningStats stats;
  for (const double v : ReleaseN(mech, cell, 100000, rng)) stats.Add(v);
  EXPECT_NEAR(stats.mean(), 90.0, 2.0);
  EXPECT_DOUBLE_EQ(mech.ExpectedL1Error(cell).value(), mech.scale());
}

TEST(TruncatedLaplaceTest, EpsilonCannotFixBias) {
  auto low_eps = TruncatedLaplaceMechanism::Create(100, 0.5, {1}).value();
  auto high_eps = TruncatedLaplaceMechanism::Create(100, 8.0, {1}).value();
  std::vector<table::EstabContribution> contribs = {{1, 3000}};
  CellQuery cell{3000, 3000, contribs};
  const double low = low_eps.ExpectedL1Error(cell).value();
  const double high = high_eps.ExpectedL1Error(cell).value();
  // 16x more budget improves error by < 7% because bias dominates.
  EXPECT_GT(high, low * 0.93);
}

}  // namespace
}  // namespace eep::mechanisms
