// Contract tests for ReleaseBatch, each mechanism's one sampler:
// determinism given an Rng state, stream consumption per cell, the exact
// refusal (code and message) on invalid cells, draw-for-draw agreement of
// Edge-Laplace with the Laplace quantile of its uniforms, and 1-vs-N-thread
// release equality through the pipeline for every mechanism kind.
// mechanism_privacy_property_test binds each sampler's output to its noise
// law, and the per-mechanism tests check its moments.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/distributions.h"
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

TEST(MechanismBatchTest, EdgeLaplaceDrawsTheQuantileOfEachUniform) {
  // Cell i's noise is LaplaceDistribution::Quantile of the i-th uniform
  // of the stream, up to the ulp-level gap between FastLogPositive and
  // libm's log.
  auto mech = EdgeLaplaceMechanism::Create(0.5).value();
  const auto noise = LaplaceDistribution::Create(mech.scale()).value();
  const auto cells = MixedCells(64, false);
  std::vector<double> released;
  Rng rng(57);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng, &released).ok());
  std::vector<double> u(cells.size());
  Rng uniforms(57);
  uniforms.FillUniform(u.data(), u.size());
  ASSERT_EQ(released.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NEAR(released[i],
                static_cast<double>(cells[i].true_count) +
                    noise.Quantile(u[i]),
                1e-9)
        << "cell " << i;
  }
  EXPECT_EQ(rng.NextUint64(), uniforms.NextUint64());
}

/// Asserts a batch of `cells` leaves `rng` exactly `per_cell` uniforms per
/// cell further along.
void CheckUniformsPerCell(const CountMechanism& mech,
                          const std::vector<CellQuery>& cells,
                          size_t per_cell) {
  std::vector<double> out;
  Rng rng(58);
  ASSERT_TRUE(mech.ReleaseBatch(cells, rng, &out).ok()) << mech.name();
  std::vector<double> skipped(per_cell * cells.size());
  Rng expected(58);
  expected.FillUniform(skipped.data(), skipped.size());
  EXPECT_EQ(rng.NextUint64(), expected.NextUint64()) << mech.name();
}

TEST(MechanismBatchTest, EveryMechanismConsumesAFixedNumberOfUniformsPerCell) {
  for (size_t n : {1, 37}) {
    const auto cells = MixedCells(n, false);
    CheckUniformsPerCell(EdgeLaplaceMechanism::Create(1.0).value(), cells, 1);
    CheckUniformsPerCell(LogLaplaceMechanism::Create(kPureParams).value(),
                         cells, 1);
    CheckUniformsPerCell(SmoothLaplaceMechanism::Create(kParams).value(),
                         cells, 1);
    CheckUniformsPerCell(SmoothGammaMechanism::Create(kPureParams).value(),
                         cells, 1);
    CheckUniformsPerCell(
        TruncatedLaplaceMechanism::Create(100, 1.0, {2}).value(),
        MixedCells(n, true), 1);
    // Two geometric legs per cell.
    CheckUniformsPerCell(GeometricMechanism::Create(kParams).value(), cells,
                         2);
  }
}

/// Asserts the batch is refused with exactly `code` and `message`, and
/// appends nothing.
void CheckRefusal(const CountMechanism& mech,
                  const std::vector<CellQuery>& cells, StatusCode code,
                  const std::string& message) {
  std::vector<double> out = {-7.0};
  Rng rng(59);
  const Status st = mech.ReleaseBatch(cells, rng, &out);
  EXPECT_EQ(st.code(), code) << mech.name() << ": " << st.ToString();
  EXPECT_EQ(st.message(), message) << mech.name();
  EXPECT_EQ(out, std::vector<double>{-7.0}) << mech.name();
}

TEST(MechanismBatchTest, NegativeCountIsRefused) {
  auto cells = MixedCells(10, false);
  cells[4].true_count = -1;
  const std::string message = "count must be >= 0";
  CheckRefusal(LogLaplaceMechanism::Create(kPureParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  CheckRefusal(SmoothLaplaceMechanism::Create(kParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  CheckRefusal(SmoothGammaMechanism::Create(kPureParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  CheckRefusal(GeometricMechanism::Create(kParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  // Edge-Laplace accepts negative counts (sensitivity-1 noise does not
  // inspect the count).
  auto edge = EdgeLaplaceMechanism::Create(1.0).value();
  std::vector<double> out;
  Rng rng(61);
  EXPECT_TRUE(edge.ReleaseBatch(cells, rng, &out).ok());
}

TEST(MechanismBatchTest, NegativeXvIsRefused) {
  auto cells = MixedCells(10, false);
  cells[7].x_v = -2;
  const std::string message = "x_v must be >= 0";
  CheckRefusal(SmoothLaplaceMechanism::Create(kParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  CheckRefusal(SmoothGammaMechanism::Create(kPureParams).value(), cells,
               StatusCode::kInvalidArgument, message);
  CheckRefusal(GeometricMechanism::Create(kParams).value(), cells,
               StatusCode::kInvalidArgument, message);
}

TEST(MechanismBatchTest, SmoothGammaAlphaZeroIsRefused) {
  // alpha == 0 passes Create (1 < e^{eps/5}) but zeroes the smoothing
  // parameter b = eps2/5, which NoiseScale rejects on every cell.
  CheckRefusal(SmoothGammaMechanism::Create({0.0, 2.0, 0.0}).value(),
               MixedCells(10, false), StatusCode::kInvalidArgument,
               "need alpha >= 0 and b > 0");
}

TEST(MechanismBatchTest, SmoothGammaExpRoundingIsRefused) {
  // For this alpha the round trip exp(log1p(alpha)) lands one ulp below
  // 1+alpha, so SmoothSensitivity's e^b >= 1+alpha check fails at release
  // time even though Create's 1+alpha < e^{eps/5} test passed.
  const auto mech =
      SmoothGammaMechanism::Create({0.010158, 2.0, 0.0}).value();
  const std::string message =
      "smooth sensitivity unbounded: e^b < 1 + alpha (Lemma 8.5)";
  EXPECT_EQ(mech.NoiseScale({10, 1, nullptr}).status().message(), message);
  CheckRefusal(mech, MixedCells(10, false), StatusCode::kInvalidArgument,
               message);
}

TEST(MechanismBatchTest, DegenerateGeometricParameterIsRefused) {
  auto cells = MixedCells(10, false);
  cells[3].x_v = int64_t{1} << 60;  // p = exp(-1/scale) rounds to 1.
  const auto mech = GeometricMechanism::Create(kParams).value();
  const std::string message =
      "geometric parameter p = exp(-1/scale) is not in [0, 1): smooth "
      "sensitivity too large (x_v * alpha overflows the noise scale)";
  EXPECT_EQ(mech.GeometricParameter(cells[3]).status().message(), message);
  CheckRefusal(mech, cells, StatusCode::kOutOfRange, message);
}

TEST(MechanismBatchTest, MissingContributionsAreRefused) {
  auto cells = MixedCells(10, true);
  cells[6].contributions = nullptr;  // Nonzero count without a breakdown.
  CheckRefusal(TruncatedLaplaceMechanism::Create(100, 1.0, {}).value(),
               cells, StatusCode::kInvalidArgument,
               "Truncated Laplace needs per-establishment contributions");
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
