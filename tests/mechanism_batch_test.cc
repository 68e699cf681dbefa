// Contract tests for the vectorized ReleaseBatch overrides: determinism
// given an Rng state, Status agreement with the scalar path on invalid
// cells, distributional correctness of the rewritten samplers, and
// 1-vs-N-thread release equality through the pipeline for every mechanism
// kind (not just the default per-cell loop PR 1 exercised).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "lodes/generator.h"
#include "mechanisms/geometric.h"
#include "mechanisms/laplace.h"
#include "mechanisms/log_laplace.h"
#include "mechanisms/smooth_gamma.h"
#include "mechanisms/smooth_laplace.h"
#include "mechanisms/truncated_laplace.h"
#include "release/pipeline.h"

namespace eep::mechanisms {
namespace {

constexpr privacy::PrivacyParams kParams{0.1, 2.0, 0.05};
constexpr privacy::PrivacyParams kPureParams{0.1, 2.0, 0.0};

const std::vector<table::EstabContribution> kContribs = {
    {1, 40}, {2, 30}, {3, 53}};

std::vector<CellQuery> MixedCells(size_t n, bool with_contributions) {
  std::vector<CellQuery> cells(n);
  for (size_t i = 0; i < n; ++i) {
    cells[i].true_count = static_cast<int64_t>(3 + 97 * i % 1000);
    cells[i].x_v = static_cast<int64_t>(1 + i % 50);
    if (with_contributions) cells[i].contributions = &kContribs;
  }
  return cells;
}

/// Exercises determinism and append semantics of one mechanism's override.
void CheckBatchDeterminism(const CountMechanism& mech,
                           const std::vector<CellQuery>& cells) {
  std::vector<double> first = {-7.0};  // Sentinel: overrides must append.
  Rng rng_a(55);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng_a, &first).ok()) << mech.name();
  ASSERT_EQ(first.size(), cells.size() + 1) << mech.name();
  EXPECT_EQ(first[0], -7.0) << mech.name();

  std::vector<double> second = {-7.0};
  Rng rng_b(55);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng_b, &second).ok()) << mech.name();
  EXPECT_EQ(first, second) << mech.name() << " batch is not deterministic";
}

TEST(MechanismBatchTest, EveryOverrideIsDeterministicAndAppends) {
  CheckBatchDeterminism(EdgeLaplaceMechanism::Create(1.0).value(),
                        MixedCells(100, false));
  CheckBatchDeterminism(LogLaplaceMechanism::Create(kPureParams).value(),
                        MixedCells(100, false));
  CheckBatchDeterminism(SmoothLaplaceMechanism::Create(kParams).value(),
                        MixedCells(100, false));
  CheckBatchDeterminism(SmoothGammaMechanism::Create(kPureParams).value(),
                        MixedCells(100, false));
  CheckBatchDeterminism(GeometricMechanism::Create(kParams).value(),
                        MixedCells(100, false));
  CheckBatchDeterminism(
      TruncatedLaplaceMechanism::Create(100, 1.0, {2}).value(),
      MixedCells(100, true));
}

TEST(MechanismBatchTest, EdgeLaplaceBatchTracksScalarDrawForDraw) {
  // Edge-Laplace's override draws through LaplaceDistribution::SampleN,
  // which consumes the stream exactly like the scalar loop — so batch and
  // scalar outputs line up draw for draw, differing only by the ulp-level
  // gap between FastLogPositive and libm in the noise transform.
  auto mech = EdgeLaplaceMechanism::Create(0.5).value();
  const auto cells = MixedCells(64, false);
  std::vector<double> batch, scalar;
  Rng rng_batch(57), rng_scalar(57);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng_batch, &batch).ok());
  ASSERT_TRUE(
      mech.CountMechanism::ReleaseBatch(cells, rng_scalar, &scalar).ok());
  ASSERT_EQ(batch.size(), scalar.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(batch[i], scalar[i], 1e-9) << "cell " << i;
  }
  EXPECT_EQ(rng_batch.NextUint64(), rng_scalar.NextUint64());
}

/// Asserts scalar (default loop) and batch (override) fail identically.
void CheckStatusParity(const CountMechanism& mech,
                       const std::vector<CellQuery>& cells) {
  std::vector<double> out;
  Rng rng_scalar(59);
  const Status scalar = mech.CountMechanism::ReleaseBatch(cells, rng_scalar,
                                                          &out);
  out.clear();
  Rng rng_batch(59);
  const Status batch = mech.ReleaseBatch(cells, rng_batch, &out);
  EXPECT_EQ(scalar.code(), batch.code())
      << mech.name() << ": scalar=" << scalar.ToString()
      << " batch=" << batch.ToString();
  EXPECT_EQ(scalar.message(), batch.message()) << mech.name();
}

TEST(MechanismBatchTest, NegativeCountStatusAgreesWithScalarPath) {
  auto cells = MixedCells(10, false);
  cells[4].true_count = -1;
  CheckStatusParity(LogLaplaceMechanism::Create(kPureParams).value(), cells);
  CheckStatusParity(SmoothLaplaceMechanism::Create(kParams).value(), cells);
  CheckStatusParity(SmoothGammaMechanism::Create(kPureParams).value(), cells);
  CheckStatusParity(GeometricMechanism::Create(kParams).value(), cells);
  // Edge-Laplace accepts negative counts on both paths (sensitivity-1
  // noise does not inspect the count).
  auto edge = EdgeLaplaceMechanism::Create(1.0).value();
  std::vector<double> out;
  Rng rng(61);
  EXPECT_TRUE(edge.ReleaseBatch(cells, rng, &out).ok());
  EXPECT_TRUE(edge.CountMechanism::ReleaseBatch(cells, rng, &out).ok());
}

TEST(MechanismBatchTest, NegativeXvStatusAgreesWithScalarPath) {
  auto cells = MixedCells(10, false);
  cells[7].x_v = -2;
  CheckStatusParity(SmoothLaplaceMechanism::Create(kParams).value(), cells);
  CheckStatusParity(SmoothGammaMechanism::Create(kPureParams).value(), cells);
  CheckStatusParity(GeometricMechanism::Create(kParams).value(), cells);
}

TEST(MechanismBatchTest, SmoothGammaAlphaZeroStatusAgreesWithScalarPath) {
  // alpha == 0 passes Create (1 < e^{eps/5}) but zeroes the smoothing
  // parameter b = eps2/5, which the scalar path rejects on every cell;
  // the batch validation pass must refuse identically.
  CheckStatusParity(SmoothGammaMechanism::Create({0.0, 2.0, 0.0}).value(),
                    MixedCells(10, false));
}

TEST(MechanismBatchTest, SmoothGammaExpRoundingStatusAgreesWithScalarPath) {
  // For some alpha the round trip exp(log1p(alpha)) lands just below
  // 1+alpha, so SmoothSensitivity's e^b >= 1+alpha check fails at release
  // time even though Create's 1+alpha < e^{eps/5} test passed. Batch and
  // scalar must agree on whichever way the rounding falls.
  CheckStatusParity(
      SmoothGammaMechanism::Create({0.027989, 2.0, 0.0}).value(),
      MixedCells(10, false));
}

TEST(MechanismBatchTest, DegenerateGeometricParameterStatusAgrees) {
  auto cells = MixedCells(10, false);
  cells[3].x_v = int64_t{1} << 60;  // p rounds to 1: both paths must refuse.
  CheckStatusParity(GeometricMechanism::Create(kParams).value(), cells);
}

TEST(MechanismBatchTest, MissingContributionsStatusAgreesWithScalarPath) {
  auto cells = MixedCells(10, true);
  cells[6].contributions = nullptr;  // Nonzero count without a breakdown.
  CheckStatusParity(TruncatedLaplaceMechanism::Create(100, 1.0, {}).value(),
                    cells);
}

TEST(MechanismBatchTest, GeometricBatchMomentsMatchAnalyticError) {
  // The batch sampler rewrites the inverse transform around
  // 1/ln(p) = -scale; verify the released distribution still matches the
  // scalar mechanism's analytics: integral outputs, mean = true count,
  // E|error| = 2p/(1-p^2).
  auto mech = GeometricMechanism::Create(kParams).value();
  const CellQuery cell{250, 80, nullptr};
  const double expected = mech.ExpectedL1Error(cell).value();
  const std::vector<CellQuery> cells(200000, cell);
  std::vector<double> out;
  Rng rng(63);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng, &out).ok());
  RunningStats stats, err;
  for (const double v : out) {
    ASSERT_EQ(v, std::round(v));
    stats.Add(v);
    err.Add(std::abs(v - 250.0));
  }
  EXPECT_NEAR(stats.mean(), 250.0, 0.5);
  EXPECT_NEAR(err.mean(), expected, expected * 0.02);
}

TEST(MechanismBatchTest, SmoothGammaBatchMomentsMatchAnalyticError) {
  auto mech = SmoothGammaMechanism::Create(kPureParams).value();
  const CellQuery cell{250, 80, nullptr};
  const double expected = mech.ExpectedL1Error(cell).value();
  const std::vector<CellQuery> cells(200000, cell);
  std::vector<double> out;
  Rng rng(67);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng, &out).ok());
  RunningStats err;
  for (const double v : out) err.Add(std::abs(v - 250.0));
  EXPECT_NEAR(err.mean(), expected, expected * 0.02);
}

// ---------------------------------------------------------------------------
// Pipeline equality: every mechanism kind must release bit-identically for
// any worker count now that shards sample through the overrides.
// ---------------------------------------------------------------------------

class BatchPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lodes::GeneratorConfig config;
    config.seed = 14;
    config.target_jobs = 10000;
    config.num_places = 16;
    data_ = new lodes::LodesDataset(
        lodes::SyntheticLodesGenerator(config).Generate().value());
  }
  static void TearDownTestSuite() { delete data_; }
  static lodes::LodesDataset* data_;
};

lodes::LodesDataset* BatchPipelineTest::data_ = nullptr;

TEST_F(BatchPipelineTest, EveryMechanismKindIsThreadCountInvariant) {
  for (eval::MechanismKind kind :
       {eval::MechanismKind::kLogLaplace, eval::MechanismKind::kSmoothLaplace,
        eval::MechanismKind::kSmoothGamma, eval::MechanismKind::kEdgeLaplace,
        eval::MechanismKind::kSmoothGeometric}) {
    release::WorkloadReleaseConfig config;
    config.workload = {{lodes::MarginalSpec::EstablishmentMarginal()}};
    config.mechanism = kind;
    config.alpha = 0.1;
    config.epsilon = 2.0;
    config.delta = 0.05;
    config.round_counts = false;  // Full-precision comparison.
    config.shard_size = 8;        // ~16 shards on the fixture marginal.
    config.num_threads = 1;
    Rng rng1(29);
    auto single = release::RunReleaseWorkload(*data_, config, nullptr, rng1);
    ASSERT_TRUE(single.ok()) << eval::MechanismKindName(kind) << ": "
                             << single.status().ToString();
    ASSERT_GT(single.value()[0].rows.size(), 100u);
    for (int threads : {2, 4, 8}) {
      config.num_threads = threads;
      Rng rng_n(29);
      auto parallel =
          release::RunReleaseWorkload(*data_, config, nullptr, rng_n);
      ASSERT_TRUE(parallel.ok()) << eval::MechanismKindName(kind);
      EXPECT_EQ(parallel.value(), single.value())
          << eval::MechanismKindName(kind) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace eep::mechanisms
