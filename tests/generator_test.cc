#include "lodes/generator.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "eval/strata.h"

namespace eep::lodes {
namespace {

/// 64-bit FNV-1a over every column's name, type, length and values, each
/// category code hashed as its 4-byte uint32 value whatever its stored
/// width.
uint64_t Fingerprint(const table::Table& table) {
  uint64_t hash = 14695981039346656037ULL;
  auto bytes = [&hash](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ULL;
    }
  };
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const table::Field& field = table.schema().field(c);
    bytes(field.name.c_str(), field.name.size() + 1);
    const auto type = static_cast<unsigned char>(field.type);
    bytes(&type, 1);
    const table::Column& column = table.column(c);
    const uint64_t rows = column.size();
    bytes(&rows, sizeof(rows));
    if (field.type == table::DataType::kInt64) {
      bytes(column.int64s().data(), rows * sizeof(int64_t));
    } else {
      column.VisitCodes([&bytes](const auto& codes) {
        for (const uint32_t code : codes) bytes(&code, sizeof(code));
      });
    }
  }
  return hash;
}

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.seed = 99;
  config.target_jobs = 20000;
  config.num_places = 40;
  return config;
}

TEST(GeneratorConfigTest, Validation) {
  GeneratorConfig c = SmallConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.target_jobs = 10;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.num_places = 2;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.pareto_tail_prob = 0.5;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.lognormal_sigma = -1.0;
  EXPECT_FALSE(c.Validate().ok());
}

class GeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new LodesDataset(
        SyntheticLodesGenerator(SmallConfig()).Generate().value());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static LodesDataset* data_;
};

LodesDataset* GeneratorTest::data_ = nullptr;

TEST_F(GeneratorTest, ReachesTargetScale) {
  EXPECT_GE(data_->num_jobs(), 20000);
  EXPECT_LE(data_->num_jobs(), 45000);  // one establishment of overshoot
  EXPECT_GT(data_->num_establishments(), 200);
  EXPECT_EQ(data_->num_workers(), data_->num_jobs());  // one job each
}

TEST_F(GeneratorTest, JoinedTableHasAllColumns) {
  const auto& full = data_->worker_full();
  EXPECT_EQ(full.num_rows(), static_cast<size_t>(data_->num_jobs()));
  for (const char* col : {kColWorkerId, kColEstabId, kColSex, kColAge,
                          kColRace, kColEthnicity, kColEducation, kColNaics,
                          kColOwnership, kColPlace}) {
    EXPECT_TRUE(full.schema().Contains(col)) << col;
  }
}

TEST_F(GeneratorTest, PlacesCoverAllFourStrata) {
  std::array<int, eval::kNumStrata> counts{};
  for (const auto& p : data_->places()) {
    ++counts[eval::StratumOf(p.population)];
  }
  for (int s = 0; s < eval::kNumStrata; ++s) {
    EXPECT_GE(counts[s], 5) << "stratum " << s;
  }
}

TEST_F(GeneratorTest, EstablishmentSizesAreRightSkewed) {
  auto graph = data_->BuildGraph().value();
  const auto degrees = graph.EstabDegrees();
  int64_t total = 0, max_degree = 0;
  int64_t small = 0;
  for (const auto& [estab, degree] : degrees) {
    total += degree;
    max_degree = std::max(max_degree, degree);
    if (degree <= 10) ++small;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(degrees.size());
  // Right skew: max far above mean, most establishments small.
  EXPECT_GT(max_degree, 20 * mean);
  EXPECT_GT(static_cast<double>(small) / degrees.size(), 0.5);
}

TEST_F(GeneratorTest, DeterministicAcrossRuns) {
  auto again = SyntheticLodesGenerator(SmallConfig()).Generate().value();
  EXPECT_EQ(again.num_jobs(), data_->num_jobs());
  EXPECT_EQ(again.num_establishments(), data_->num_establishments());
  // Spot-check one column matches exactly.
  const table::Column& a =
      *data_->worker_full().ColumnByName(kColSex).value();
  const table::Column& b = *again.worker_full().ColumnByName(kColSex).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 997) EXPECT_EQ(a.code(i), b.code(i));
}

struct ExtractPin {
  int64_t target_jobs;
  int32_t num_places;
  uint64_t workers, workplaces, jobs, worker_full;
};

// Fingerprints of the seed-42 extract, computed with joins that copied
// every column: any change to a generated or joined value moves one.
TEST(GeneratorPinTest, ExtractMatchesPinnedFingerprints) {
  const ExtractPin pins[] = {
      {20000, 20, 0x1ed1c318eac6bfceULL, 0x5bd17684f1b816acULL,
       0xa2702b9733781c9dULL, 0x772220d0a8d5d785ULL},
      {400000, 160, 0x2a0415f499db7936ULL, 0x3174e7fb301dbec8ULL,
       0x5a57a3b602f0c483ULL, 0x67c2bbafe665ee73ULL},
  };
  for (const ExtractPin& pin : pins) {
    SCOPED_TRACE(pin.target_jobs);
    GeneratorConfig config;
    config.seed = 42;
    config.target_jobs = pin.target_jobs;
    config.num_places = pin.num_places;
    const LodesDataset data =
        SyntheticLodesGenerator(config).Generate().value();
    EXPECT_EQ(Fingerprint(data.workers()), pin.workers);
    EXPECT_EQ(Fingerprint(data.workplaces()), pin.workplaces);
    EXPECT_EQ(Fingerprint(data.jobs()), pin.jobs);
    EXPECT_EQ(Fingerprint(data.worker_full()), pin.worker_full);
  }
}

TEST_F(GeneratorTest, WorkerFullSharesJobAndWorkerColumns) {
  const table::Table& full = data_->worker_full();
  auto storage = [](const table::Table& table, const char* name) {
    const table::Column& column = *table.ColumnByName(name).value();
    if (column.type() == table::DataType::kInt64) {
      return static_cast<const void*>(column.int64s().data());
    }
    return column.VisitCodes(
        [](const auto& codes) -> const void* { return codes.data(); });
  };
  for (const char* col : {kColWorkerId, kColEstabId}) {
    EXPECT_EQ(storage(full, col), storage(data_->jobs(), col)) << col;
  }
  for (const char* col :
       {kColSex, kColAge, kColRace, kColEthnicity, kColEducation}) {
    EXPECT_EQ(storage(full, col), storage(data_->workers(), col)) << col;
  }
  // Jobs and Workers share one worker-id vector.
  EXPECT_EQ(storage(data_->jobs(), kColWorkerId),
            storage(data_->workers(), kColWorkerId));
}

TEST_F(GeneratorTest, CategoryColumnsAreStoredAtTheirNarrowestWidth) {
  const table::Table& full = data_->worker_full();
  for (const char* col : {kColSex, kColAge, kColRace, kColEthnicity,
                          kColEducation, kColNaics, kColOwnership}) {
    EXPECT_EQ(full.ColumnByName(col).value()->code_width(), 1u) << col;
  }
  // 40 places fit a byte; the paper preset's 640 take two.
  EXPECT_EQ(full.ColumnByName(kColPlace).value()->code_width(), 1u);
}

TEST_F(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig config = SmallConfig();
  config.seed = 100;
  auto other = SyntheticLodesGenerator(config).Generate().value();
  EXPECT_NE(other.num_jobs(), data_->num_jobs());
}

TEST_F(GeneratorTest, WorkerAttributesCorrelateWithIndustry) {
  // Health care (sector index of "62") should employ a higher share of
  // women than construction ("23").
  const auto& full = data_->worker_full();
  const table::Column& naics = *full.ColumnByName(kColNaics).value();
  const table::Column& sex = *full.ColumnByName(kColSex).value();
  const auto& dict = *full.schema()
                          .field(full.schema().IndexOf(kColNaics).value())
                          .dictionary;
  const uint32_t health = dict.CodeOf("62").value();
  const uint32_t construction = dict.CodeOf("23").value();
  int64_t health_total = 0, health_female = 0;
  int64_t constr_total = 0, constr_female = 0;
  for (size_t i = 0; i < naics.size(); ++i) {
    if (naics.code(i) == health) {
      ++health_total;
      health_female += sex.code(i) == FemaleCode();
    } else if (naics.code(i) == construction) {
      ++constr_total;
      constr_female += sex.code(i) == FemaleCode();
    }
  }
  ASSERT_GT(health_total, 100);
  ASSERT_GT(constr_total, 100);
  EXPECT_GT(static_cast<double>(health_female) / health_total,
            static_cast<double>(constr_female) / constr_total + 0.2);
}

TEST_F(GeneratorTest, OwnershipConcentratedInPublicAdmin) {
  const auto& full = data_->worker_full();
  const table::Column& naics = *full.ColumnByName(kColNaics).value();
  const table::Column& own = *full.ColumnByName(kColOwnership).value();
  const auto& dict = *full.schema()
                          .field(full.schema().IndexOf(kColNaics).value())
                          .dictionary;
  const uint32_t pubadmin = dict.CodeOf("92").value();
  int64_t pub_total = 0, pub_private = 0;
  for (size_t i = 0; i < naics.size(); ++i) {
    if (naics.code(i) == pubadmin) {
      ++pub_total;
      pub_private += own.code(i) == 0;  // "Private"
    }
  }
  ASSERT_GT(pub_total, 50);
  EXPECT_LT(static_cast<double>(pub_private) / pub_total, 0.3);
}

}  // namespace
}  // namespace eep::lodes
