#include "mechanisms/laplace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace eep::mechanisms {
namespace {

TEST(EdgeLaplaceTest, CreateValidation) {
  EXPECT_FALSE(EdgeLaplaceMechanism::Create(0.0).ok());
  EXPECT_FALSE(EdgeLaplaceMechanism::Create(-1.0).ok());
  EXPECT_TRUE(EdgeLaplaceMechanism::Create(0.5).ok());
}

TEST(EdgeLaplaceTest, ScaleIsInverseEpsilon) {
  auto mech = EdgeLaplaceMechanism::Create(2.0).value();
  EXPECT_DOUBLE_EQ(mech.scale(), 0.5);
  EXPECT_EQ(mech.name(), "Edge-Laplace");
}

// Tolerance audit: the EXPECT_NEAR bounds below sit at >= 4.5 sigma of the
// estimator noise (0 failures over a 200-seed sweep); keep at least ~4
// sigma of slack when tightening.
TEST(EdgeLaplaceTest, UnbiasedWithExpectedError) {
  auto mech = EdgeLaplaceMechanism::Create(1.0).value();
  CellQuery cell{1000, 1000, nullptr};
  std::vector<double> out;
  Rng rng(7);
  ASSERT_TRUE(mech.ReleaseBatch(std::vector<CellQuery>(100000, cell), rng,
                                &out)
                  .ok());
  RunningStats err;
  RunningStats val;
  for (const double v : out) {
    val.Add(v);
    err.Add(std::abs(v - 1000.0));
  }
  EXPECT_NEAR(val.mean(), 1000.0, 0.02);
  EXPECT_NEAR(err.mean(), mech.ExpectedL1Error(cell).value(), 0.02);
}

// Claim B.1 / Section 6: edge-DP noise does not grow with establishment
// size, so the relative disclosure of a large employer's size is precise —
// the reason edge-DP fails the employer-size requirement.
TEST(EdgeLaplaceTest, NoiseIndependentOfEstablishmentSize) {
  auto mech = EdgeLaplaceMechanism::Create(1.0).value();
  CellQuery small{10, 10, nullptr};
  CellQuery huge{10000, 10000, nullptr};
  EXPECT_DOUBLE_EQ(mech.ExpectedL1Error(small).value(),
                   mech.ExpectedL1Error(huge).value());
  // With eps=1, the count of a 10,000-employee establishment is disclosed
  // to within ~log(1/p) with probability 1-p (at most 5 for p=0.01).
  const int n = 10000;
  std::vector<double> out;
  Rng rng(11);
  ASSERT_TRUE(
      mech.ReleaseBatch(std::vector<CellQuery>(n, huge), rng, &out).ok());
  int within5 = 0;
  for (const double v : out) {
    if (std::abs(v - 10000.0) <= 5.0) ++within5;
  }
  EXPECT_GT(static_cast<double>(within5) / n, 0.98);
}

}  // namespace
}  // namespace eep::mechanisms
