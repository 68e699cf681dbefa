#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "lodes/generator.h"
#include "mechanisms/smooth_laplace.h"

namespace eep::eval {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lodes::GeneratorConfig config;
    config.seed = 5;
    config.target_jobs = 30000;
    config.num_places = 40;
    data_ = new lodes::LodesDataset(
        lodes::SyntheticLodesGenerator(config).Generate().value());
    query_ = new lodes::MarginalQuery(
        lodes::MarginalQuery::Compute(
            *data_, lodes::MarginalSpec::EstablishmentMarginal())
            .value());
  }
  static void TearDownTestSuite() {
    delete query_;
    delete data_;
  }

  static ExperimentConfig Config(int trials = 5) {
    ExperimentConfig config;
    config.trials = trials;
    config.seed = 21;
    return config;
  }

  static lodes::LodesDataset* data_;
  static lodes::MarginalQuery* query_;
};

lodes::LodesDataset* ExperimentTest::data_ = nullptr;
lodes::MarginalQuery* ExperimentTest::query_ = nullptr;

mechanisms::SmoothLaplaceMechanism Mech(double alpha = 0.1,
                                        double eps = 2.0) {
  return mechanisms::SmoothLaplaceMechanism::Create({alpha, eps, 0.05})
      .value();
}

TEST_F(ExperimentTest, SdlErrorPositiveAndStratified) {
  ExperimentRunner runner(data_, Config());
  auto err = runner.SdlError(*query_).value();
  EXPECT_GT(err.overall, 0.0);
  EXPECT_GT(err.total_cells, 100);
  double stratum_sum = 0.0;
  int64_t cell_sum = 0;
  for (int s = 0; s < kNumStrata; ++s) {
    stratum_sum += err.by_stratum[s];
    cell_sum += err.cells_by_stratum[s];
  }
  EXPECT_NEAR(stratum_sum, err.overall, 1e-6 * err.overall);
  EXPECT_EQ(cell_sum, err.total_cells);
}

TEST_F(ExperimentTest, SdlErrorDeterministicGivenSeed) {
  ExperimentRunner a(data_, Config());
  ExperimentRunner b(data_, Config());
  EXPECT_DOUBLE_EQ(a.SdlError(*query_).value().overall,
                   b.SdlError(*query_).value().overall);
}

TEST_F(ExperimentTest, MechanismErrorTracksAnalyticScale) {
  ExperimentRunner runner(data_, Config(30));
  auto mech = Mech();
  auto err = runner.MechanismError(*query_, mech).value();
  // Analytic expectation: sum over cells of the per-cell expected L1.
  double expected = 0.0;
  for (const auto& cell : query_->cells()) {
    expected +=
        mech.ExpectedL1Error({cell.count, cell.x_v, nullptr}).value();
  }
  // The L1 sum is dominated by a few heavy cells, so the Monte-Carlo
  // average concentrates slowly; 30 trials within 20% is the right scale.
  EXPECT_NEAR(err.overall, expected, 0.2 * expected);
}

TEST_F(ExperimentTest, ErrorRatioConsistent) {
  ExperimentRunner runner(data_, Config());
  auto mech = Mech();
  auto ratio = runner.ErrorRatio(*query_, mech).value();
  EXPECT_GT(ratio.overall_ratio, 0.0);
  EXPECT_NEAR(ratio.overall_ratio,
              ratio.mechanism.overall / ratio.baseline.overall, 1e-12);
}

TEST_F(ExperimentTest, FilterRestrictsCells) {
  ExperimentRunner runner(data_, Config(2));
  // Only stratum-3 cells.
  CellFilter filter = [this](const lodes::MarginalCell& cell) {
    return StratumOf(query_->PlacePopulation(cell)) == 3;
  };
  auto all = runner.SdlError(*query_).value();
  auto filtered = runner.SdlError(*query_, filter).value();
  EXPECT_LT(filtered.total_cells, all.total_cells);
  EXPECT_EQ(filtered.cells_by_stratum[0], 0);
  EXPECT_EQ(filtered.cells_by_stratum[3], filtered.total_cells);
}

TEST_F(ExperimentTest, RankingCorrelationHighForAccurateMechanism) {
  ExperimentRunner runner(data_, Config());
  auto mech = Mech(0.1, 4.0);
  auto corr = runner.RankingCorrelation(*query_, mech).value();
  EXPECT_GT(corr.overall, 0.8);
  EXPECT_LE(corr.overall, 1.0);
}

TEST_F(ExperimentTest, RankingNeedsTwoCells) {
  ExperimentRunner runner(data_, Config(2));
  auto mech = Mech();
  CellFilter none = [](const lodes::MarginalCell&) { return false; };
  EXPECT_FALSE(runner.RankingCorrelation(*query_, mech, none).ok());
}

TEST_F(ExperimentTest, ThreadedTrialsBitwiseIdenticalToSerial) {
  ExperimentConfig serial_cfg = Config(12);
  ExperimentConfig threaded_cfg = Config(12);
  threaded_cfg.threads = 4;
  ExperimentRunner serial(data_, serial_cfg);
  ExperimentRunner threaded(data_, threaded_cfg);
  auto mech = Mech();

  const auto serial_sdl = serial.SdlError(*query_).value();
  const auto threaded_sdl = threaded.SdlError(*query_).value();
  EXPECT_EQ(serial_sdl.overall, threaded_sdl.overall);
  for (int s = 0; s < kNumStrata; ++s) {
    EXPECT_EQ(serial_sdl.by_stratum[s], threaded_sdl.by_stratum[s]);
  }

  const auto serial_mech = serial.MechanismError(*query_, mech).value();
  const auto threaded_mech = threaded.MechanismError(*query_, mech).value();
  EXPECT_EQ(serial_mech.overall, threaded_mech.overall);
}

TEST_F(ExperimentTest, RejectsFewerThanOneTrial) {
  // Averaging over zero trials would divide by zero, and a negative count
  // would size the per-trial buffers from a negative number.
  auto mech = Mech();
  for (int trials : {0, -1}) {
    ExperimentConfig config = Config(trials);
    config.threads = 4;
    ExperimentRunner runner(data_, config);
    const std::string context = "trials=" + std::to_string(trials);
    EXPECT_EQ(runner.SdlError(*query_).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(runner.MechanismError(*query_, mech).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(runner.ErrorRatio(*query_, mech).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(runner.RankingCorrelation(*query_, mech).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(runner.CompareRelativeError(*query_, mech).status().code(),
              StatusCode::kInvalidArgument)
        << context;
  }
}

TEST_F(ExperimentTest, SdlReleaseOnceMatchesCellCount) {
  ExperimentRunner runner(data_, Config(1));
  auto release = runner.SdlReleaseOnce(*query_, 77).value();
  EXPECT_EQ(release.size(), query_->cells().size());
  // Zeros preserved; positive cells perturbed or small-cell replaced.
  for (size_t i = 0; i < release.size(); ++i) {
    if (query_->cells()[i].count == 0) {
      EXPECT_EQ(release[i], 0.0);
    } else {
      EXPECT_GT(release[i], 0.0);
    }
  }
}

}  // namespace
}  // namespace eep::eval
