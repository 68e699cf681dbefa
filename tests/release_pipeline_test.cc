#include "release/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/distributions.h"
#include "lodes/generator.h"
#include "mechanisms/smooth_laplace.h"
#include "store/store.h"
#include "table/group_by_cache.h"

namespace eep::release {
namespace {

class ReleasePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lodes::GeneratorConfig config;
    config.seed = 12;
    config.target_jobs = 10000;
    config.num_places = 16;
    data_ = new lodes::LodesDataset(
        lodes::SyntheticLodesGenerator(config).Generate().value());
  }
  static void TearDownTestSuite() { delete data_; }

  /// The table of a one-marginal release with no accountant attached.
  static ReleasedTable ReleaseOne(const WorkloadReleaseConfig& config,
                                  Rng& rng) {
    std::vector<ReleasedTable> tables =
        RunReleaseWorkload(*data_, config, nullptr, rng).value();
    EXPECT_EQ(tables.size(), 1u);
    return std::move(tables.front());
  }

  static lodes::LodesDataset* data_;
};

lodes::LodesDataset* ReleasePipelineTest::data_ = nullptr;

// A one-marginal workload: the establishment marginal alone.
WorkloadReleaseConfig EstabConfig() {
  WorkloadReleaseConfig config;
  config.workload = {{lodes::MarginalSpec::EstablishmentMarginal()}};
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  return config;
}

TEST_F(ReleasePipelineTest, ReleasesLabeledTable) {
  Rng rng(1);
  auto table = ReleaseOne(EstabConfig(), rng);
  EXPECT_EQ(table.name, "m0:place,naics,ownership");
  ASSERT_EQ(table.header.size(), 4u);  // place, naics, ownership, count
  EXPECT_EQ(table.header.back(), "count");
  EXPECT_GT(table.rows.size(), 100u);
  for (const auto& row : table.rows) {
    ASSERT_EQ(row.size(), 4u);
    // Rounded counts are non-negative integers.
    EXPECT_GE(std::stoll(row.back()), 0);
  }
}

TEST_F(ReleasePipelineTest, ChargesAccountantOnce) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.1, 4.0, 0.1, privacy::AdversaryModel::kInformed)
                  .value();
  Rng rng(2);
  ASSERT_TRUE(RunReleaseWorkload(*data_, EstabConfig(), &acct, rng).ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 2.0);
  EXPECT_EQ(acct.ledger().size(), 1u);
}

TEST_F(ReleasePipelineTest, WeakModelChargesSurcharge) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.1, 20.0, 0.5, privacy::AdversaryModel::kWeak)
                  .value();
  WorkloadReleaseConfig config = EstabConfig();
  config.workload = {{lodes::MarginalSpec::WorkplaceBySexEducation()}};
  Rng rng(3);
  ASSERT_TRUE(RunReleaseWorkload(*data_, config, &acct, rng).ok());
  // d = 8 worker cells -> 8 x 2.0.
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 16.0);
}

TEST_F(ReleasePipelineTest, RefusesWhenBudgetExhausted) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.1, 3.0, 0.1, privacy::AdversaryModel::kInformed)
                  .value();
  Rng rng(4);
  ASSERT_TRUE(RunReleaseWorkload(*data_, EstabConfig(), &acct, rng).ok());
  auto second = RunReleaseWorkload(*data_, EstabConfig(), &acct, rng);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ReleasePipelineTest, RejectsAlphaMismatch) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.2, 4.0, 0.1, privacy::AdversaryModel::kInformed)
                  .value();
  Rng rng(5);
  EXPECT_FALSE(RunReleaseWorkload(*data_, EstabConfig(), &acct, rng).ok());
}

TEST_F(ReleasePipelineTest, UnroundedReleaseKeepsFractions) {
  WorkloadReleaseConfig config = EstabConfig();
  config.round_counts = false;
  Rng rng(6);
  auto table = ReleaseOne(config, rng);
  bool any_fraction = false;
  for (const auto& row : table.rows) {
    if (row.back().find('.') != std::string::npos) any_fraction = true;
  }
  EXPECT_TRUE(any_fraction);
}

TEST_F(ReleasePipelineTest, WritesCsv) {
  Rng rng(7);
  auto table = ReleaseOne(EstabConfig(), rng);
  const std::string path = testing::TempDir() + "/eep_release_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, table.header, table.rows).ok());
  auto doc = ReadCsvFile(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows.size(), table.rows.size());
  EXPECT_EQ(doc.value().header.back(), "count");
  std::remove(path.c_str());
}

TEST_F(ReleasePipelineTest, FullDemographicsSurchargeIsHuge) {
  // d = 768 worker cells: a single weak-model release at the SMALLEST
  // feasible per-cell budget (eps=0.15 > the Table-2 minimum for
  // alpha=0.01, delta=0.001) still costs 115.2 epsilon — releasing full
  // demographic detail burns budgets three orders of magnitude faster.
  auto acct = privacy::PrivacyAccountant::Create(
                  0.01, 200.0, 0.9, privacy::AdversaryModel::kWeak)
                  .value();
  WorkloadReleaseConfig config;
  config.workload = {{lodes::MarginalSpec::FullDemographics()}};
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.01;
  config.epsilon = 0.15;
  config.delta = 0.001;
  Rng rng(9);
  auto released = RunReleaseWorkload(*data_, config, &acct, rng);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 0.15 * 768);
  EXPECT_DOUBLE_EQ(acct.spent_delta(), 0.001 * 768);
}

TEST_F(ReleasePipelineTest, InfeasibleMechanismDoesNotChargeBudget) {
  auto acct = privacy::PrivacyAccountant::Create(
                  0.2, 4.0, 0.1, privacy::AdversaryModel::kInformed)
                  .value();
  WorkloadReleaseConfig config = EstabConfig();
  config.alpha = 0.2;
  config.epsilon = 0.5;  // below the Table-2 minimum for alpha=0.2
  Rng rng(10);
  EXPECT_FALSE(RunReleaseWorkload(*data_, config, &acct, rng).ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 0.0);
  EXPECT_TRUE(acct.ledger().empty());
}

TEST_F(ReleasePipelineTest, ParallelOutputIdenticalToSingleThread) {
  // The sharded runner's core guarantee: for a fixed seed the released
  // table is bit-identical for any worker count.
  WorkloadReleaseConfig config = EstabConfig();
  // The fixture marginal has ~127 cells; a small shard keeps 15+ shards in
  // play so the requested worker counts below survive the threads <=
  // num_shards clamp and genuinely run concurrently.
  config.shard_size = 8;
  config.num_threads = 1;
  Rng rng1(21);
  auto single = ReleaseOne(config, rng1);
  ASSERT_GT(single.rows.size(), 100u);
  // Both paths must also consume the caller's stream identically.
  const uint64_t stream_after_release = rng1.NextUint64();
  for (int threads : {2, 3, 4, 8}) {
    config.num_threads = threads;
    Rng rngN(21);
    auto parallel = ReleaseOne(config, rngN);
    EXPECT_EQ(parallel.header, single.header);
    EXPECT_EQ(parallel.rows, single.rows) << "threads=" << threads;
    EXPECT_EQ(rngN.NextUint64(), stream_after_release)
        << "threads=" << threads;
  }
}

TEST_F(ReleasePipelineTest, ParallelUnroundedOutputIdentical) {
  WorkloadReleaseConfig config = EstabConfig();
  config.round_counts = false;
  config.num_threads = 1;
  config.shard_size = 16;  // ~8 shards on the fixture's ~127-cell marginal.
  Rng rng1(22);
  auto single = ReleaseOne(config, rng1);
  config.num_threads = 4;
  Rng rng4(22);
  auto parallel = ReleaseOne(config, rng4);
  EXPECT_EQ(parallel.rows, single.rows);
}

TEST_F(ReleasePipelineTest, ShardSizeIsPartOfTheNoiseStream) {
  // Documented contract: shard_size participates in substream derivation
  // (like a seed), so different shard sizes give different — but each
  // internally reproducible — noise.
  WorkloadReleaseConfig config = EstabConfig();
  config.round_counts = false;
  config.shard_size = 64;
  Rng a(23);
  auto small_shards = ReleaseOne(config, a);
  config.shard_size = 4096;
  Rng b(23);
  auto large_shards = ReleaseOne(config, b);
  EXPECT_NE(small_shards.rows, large_shards.rows);
}

TEST_F(ReleasePipelineTest, HardwareThreadCountRequestAccepted) {
  WorkloadReleaseConfig config = EstabConfig();
  config.num_threads = 0;  // "use hardware_concurrency"
  config.shard_size = 8;   // Enough shards that workers actually spawn.
  Rng rng(24);
  auto table = RunReleaseWorkload(*data_, config, nullptr, rng);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table.value()[0].rows.size(), 100u);
}

TEST_F(ReleasePipelineTest, RejectsInvalidShardSize) {
  WorkloadReleaseConfig config = EstabConfig();
  config.shard_size = 0;
  Rng rng(25);
  EXPECT_EQ(RunReleaseWorkload(*data_, config, nullptr, rng).status().code(),
            StatusCode::kInvalidArgument);
}

/// Releases `workload` into a fresh store at `dir`, rounded and unrounded,
/// on 1 and 4 threads. The coded tables the pipeline commits must be
/// exactly store::EncodeTable of the rows it returns, so each segment
/// must match, in size and CRC, the one committing those rows writes.
/// `shard_size` should leave several shards per table, so that 4 workers
/// all run.
void ExpectPersistedTablesAreTheEncodedRows(const lodes::LodesDataset& data,
                                            const lodes::WorkloadSpec& workload,
                                            int shard_size,
                                            const std::string& dir) {
  for (bool round_counts : {true, false}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "round_counts=" << round_counts
                                      << " threads=" << threads);
      std::filesystem::remove_all(dir);
      std::filesystem::remove_all(dir + "-rows");
      auto store = store::Store::Open(dir);
      auto rows_store = store::Store::Open(dir + "-rows");
      ASSERT_TRUE(store.ok() && rows_store.ok());
      WorkloadReleaseConfig config = EstabConfig();
      config.workload = workload;
      config.round_counts = round_counts;
      config.num_threads = threads;
      config.shard_size = shard_size;
      config.persist_to = store.value().get();
      Rng rng(31);
      auto released = RunReleaseWorkload(data, config, nullptr, rng);
      ASSERT_TRUE(released.ok()) << released.status().ToString();
      ASSERT_EQ(released.value().size(), workload.marginals.size());

      const store::EpochInfo* persisted = store.value()->CurrentEpoch().value();
      ASSERT_TRUE(rows_store.value()
                      ->CommitEpoch(persisted->fingerprint, released.value())
                      .ok());
      const store::EpochInfo* from_rows =
          rows_store.value()->CurrentEpoch().value();
      ASSERT_EQ(persisted->tables.size(), released.value().size());
      ASSERT_EQ(from_rows->tables.size(), released.value().size());
      for (size_t t = 0; t < released.value().size(); ++t) {
        const ReleasedTable& table = released.value()[t];
        SCOPED_TRACE(table.name);
        auto coded = store.value()->ReadCoded(persisted->epoch, table.name);
        ASSERT_TRUE(coded.ok()) << coded.status().ToString();
        EXPECT_TRUE(coded.value() == store::EncodeTable(table).value());
        EXPECT_EQ(persisted->tables[t].name, from_rows->tables[t].name);
        EXPECT_EQ(persisted->tables[t].size_bytes,
                  from_rows->tables[t].size_bytes);
        EXPECT_EQ(persisted->tables[t].crc32c, from_rows->tables[t].crc32c);
      }
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "-rows");
}

TEST_F(ReleasePipelineTest, PersistedTablesAreTheEncodedReleasedRows) {
  const std::string dir = testing::TempDir() + "/eep_release_pipeline_store";
  for (const char* name :
       {"paper", "establishment,industry_sexedu,sexedu,full_demographics"}) {
    SCOPED_TRACE(name);
    ExpectPersistedTablesAreTheEncodedRows(
        *data_, lodes::WorkloadSpec::ByName(name).value(), 64, dir);
  }
}

TEST_F(ReleasePipelineTest, CountsPastTheDenseRangeAreCodedLikeTheRest) {
  // Coarse marginals of a 300k-job extract: cells of ownership x sex and of
  // sex alone hold more than 2^16 jobs, next to smaller ones, so the
  // release interns counts on both sides of its dense range.
  lodes::GeneratorConfig generator;
  generator.seed = 13;
  generator.target_jobs = 300000;
  generator.num_places = 12;
  const lodes::LodesDataset data =
      lodes::SyntheticLodesGenerator(generator).Generate().value();
  lodes::WorkloadSpec workload;
  workload.marginals = {{{"ownership"}, {"sex"}}, {{}, {"sex"}}};
  ExpectPersistedTablesAreTheEncodedRows(
      data, workload, 2,
      testing::TempDir() + "/eep_release_pipeline_large_counts");

  WorkloadReleaseConfig config = EstabConfig();
  config.workload = workload;
  Rng rng(32);
  auto released = RunReleaseWorkload(data, config, nullptr, rng);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  int64_t large = 0;
  int64_t small = 0;
  for (const auto& row : released.value()[0].rows) {
    (std::stoll(row.back()) >= (int64_t{1} << 16) ? large : small) += 1;
  }
  EXPECT_GT(large, 0);
  EXPECT_GT(small, 0);
}

TEST_F(ReleasePipelineTest, InvalidSpecRejected) {
  WorkloadReleaseConfig config = EstabConfig();
  config.workload = {{lodes::MarginalSpec{}}};
  Rng rng(8);
  EXPECT_FALSE(RunReleaseWorkload(*data_, config, nullptr, rng).ok());
}

struct CellTruth {
  int64_t count = 0;
  int64_t x_v = 0;
};

// Each cell of a released table's attribute columns (`header` without its
// final "count"), keyed by its labels: the true count and the largest
// single-establishment contribution, tallied row by row from WorkerFull.
std::map<std::vector<std::string>, CellTruth> BruteForceCells(
    const lodes::LodesDataset& data, const std::vector<std::string>& header) {
  const table::Table& full = data.worker_full();
  const std::vector<int64_t>& estabs =
      full.ColumnByName(lodes::kColEstabId).value()->int64s();
  std::map<std::vector<std::string>, std::map<int64_t, int64_t>> jobs;
  for (size_t row = 0; row < full.num_rows(); ++row) {
    std::vector<std::string> labels;
    for (size_t c = 0; c + 1 < header.size(); ++c) {
      const size_t field = full.schema().IndexOf(header[c]).value();
      labels.push_back(full.schema().field(field).dictionary->value(
          full.column(field).code(row)));
    }
    ++jobs[labels][estabs[row]];
  }
  std::map<std::vector<std::string>, CellTruth> cells;
  for (const auto& [labels, by_estab] : jobs) {
    CellTruth& cell = cells[labels];
    for (const auto& [estab, count] : by_estab) {
      cell.count += count;
      cell.x_v = std::max(cell.x_v, count);
    }
  }
  return cells;
}

// The noise on every published cell, audited end to end: the paper's two
// tabulations, unrounded, released until at least 40,000 cells pool. Each
// value minus its cell's true count, over Smooth Laplace's NoiseScale at
// the brute-force x_v, must be Laplace(1) within KS distance 2.5/sqrt(n).
// A wrong x_v that every grouping path shares (the second-largest
// contribution, say) reads ~0.023 against a bound of ~0.0125, and the
// correct one 0.002-0.008; the bit-identity tests compare the engine with
// itself and cannot see it.
TEST_F(ReleasePipelineTest, PublishedNoiseIsLaplaceAtTheBruteForceXv) {
  WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  config.round_counts = false;
  const auto mech = mechanisms::SmoothLaplaceMechanism::Create(
                        {config.alpha, config.epsilon, config.delta})
                        .value();
  table::GroupByCache cache;
  Rng rng(31);
  std::vector<std::map<std::vector<std::string>, CellTruth>> truth;
  std::vector<double> z;
  while (z.size() < 40000) {
    auto tables = RunReleaseWorkload(*data_, config, nullptr, rng, &cache);
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    ASSERT_EQ(tables.value().size(), 2u);
    for (size_t m = 0; m < tables.value().size(); ++m) {
      const ReleasedTable& table = tables.value()[m];
      if (truth.size() == m) {
        truth.push_back(BruteForceCells(*data_, table.header));
      }
      for (const auto& row : table.rows) {
        const auto it =
            truth[m].find(std::vector<std::string>(row.begin(), row.end() - 1));
        const CellTruth cell = it == truth[m].end() ? CellTruth{} : it->second;
        const double scale =
            mech.NoiseScale({cell.count, cell.x_v, nullptr}).value();
        z.push_back((std::stod(row.back()) - static_cast<double>(cell.count)) /
                    scale);
      }
    }
  }
  std::sort(z.begin(), z.end());
  const auto laplace = LaplaceDistribution::Create(1.0).value();
  const double n = static_cast<double>(z.size());
  double ks = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    const double f = laplace.Cdf(z[i]);
    ks = std::max({ks, f - static_cast<double>(i) / n,
                   static_cast<double>(i + 1) / n - f});
  }
  EXPECT_LT(ks, 2.5 / std::sqrt(n)) << "over " << z.size() << " cells";
}

}  // namespace
}  // namespace eep::release
