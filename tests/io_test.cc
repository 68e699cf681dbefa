#include "lodes/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "lodes/generator.h"
#include "lodes/marginal.h"

namespace eep::lodes {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_io_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

LodesDataset SmallData(uint64_t seed = 31) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_jobs = 5000;
  config.num_places = 12;
  return SyntheticLodesGenerator(config).Generate().value();
}

TEST_F(IoTest, SaveLoadRoundTrip) {
  LodesDataset original = SmallData();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  for (const char* file :
       {"places.csv", "workplaces.csv", "workers.csv", "jobs.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + file)) << file;
  }

  auto loaded = LoadDataset(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_jobs(), original.num_jobs());
  EXPECT_EQ(loaded.value().num_workers(), original.num_workers());
  EXPECT_EQ(loaded.value().num_establishments(),
            original.num_establishments());
  EXPECT_EQ(loaded.value().places().size(), original.places().size());
  for (size_t i = 0; i < original.places().size(); ++i) {
    EXPECT_EQ(loaded.value().places()[i].name, original.places()[i].name);
    EXPECT_EQ(loaded.value().places()[i].population,
              original.places()[i].population);
  }
}

TEST_F(IoTest, RoundTripPreservesMarginals) {
  LodesDataset original = SmallData(37);
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  auto loaded = LoadDataset(dir_).value();

  auto q1 = MarginalQuery::Compute(original,
                                   MarginalSpec::EstablishmentMarginal())
                .value();
  auto q2 = MarginalQuery::Compute(loaded,
                                   MarginalSpec::EstablishmentMarginal())
                .value();
  ASSERT_EQ(q1.cells().size(), q2.cells().size());
  for (size_t i = 0; i < q1.cells().size(); ++i) {
    EXPECT_EQ(q1.cells()[i].key, q2.cells()[i].key);
    EXPECT_EQ(q1.cells()[i].count, q2.cells()[i].count);
    EXPECT_EQ(q1.cells()[i].x_v, q2.cells()[i].x_v);
  }
}

TEST_F(IoTest, LoadMissingDirectoryFails) {
  EXPECT_EQ(LoadDataset("/nonexistent/nowhere").status().code(),
            StatusCode::kIOError);
}

TEST_F(IoTest, LoadRejectsBadDictionaryValue) {
  LodesDataset original = SmallData();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  // Corrupt one NAICS value.
  const std::string path = dir_ + "/workplaces.csv";
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const size_t pos = content.find("\n1,");
  ASSERT_NE(pos, std::string::npos);
  // Replace the row's naics field with a bogus sector.
  const size_t comma = content.find(',', pos + 1);
  const size_t comma2 = content.find(',', comma + 1);
  content.replace(comma + 1, comma2 - comma - 1, "99");
  std::ofstream out(path);
  out << content;
  out.close();
  auto loaded = LoadDataset(dir_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, LoadRejectsDanglingJob) {
  LodesDataset original = SmallData();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  std::ofstream out(dir_ + "/jobs.csv", std::ios::app);
  out << "999999,1\n";  // unknown worker
  out.close();
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

TEST_F(IoTest, LoadRejectsWrongHeader) {
  LodesDataset original = SmallData();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  std::ofstream out(dir_ + "/jobs.csv");
  out << "bad,header\n1,1\n";
  out.close();
  auto loaded = LoadDataset(dir_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// The CSV layer routes through common/file.h (the raw-file-io lint rule
// enforces it), so disk faults injected at the file layer's failpoints must
// surface from SaveDataset as Status::IOError — not as a silently truncated
// dataset on disk.
TEST_F(IoTest, SaveSurfacesInjectedDiskFull) {
  LodesDataset original = SmallData();
  FailpointSpec spec;
  spec.fault = FailpointFault::kError;
  spec.hit = 3;
  spec.message = "ENOSPC";
  FailpointRegistry::Instance().Arm("file/append", spec);
  Status save = SaveDataset(original, dir_);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(save.code(), StatusCode::kIOError);
  EXPECT_NE(save.ToString().find("ENOSPC"), std::string::npos);
}

TEST_F(IoTest, SaveSurfacesInjectedShortWrite) {
  LodesDataset original = SmallData();
  FailpointSpec spec;
  spec.fault = FailpointFault::kShortWrite;
  spec.partial_bytes = 5;
  FailpointRegistry::Instance().Arm("file/append", spec);
  Status save = SaveDataset(original, dir_);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(save.code(), StatusCode::kIOError);
  // The torn file never passes a reload: either the header is clipped
  // (InvalidArgument) or rows are malformed — it cannot round trip.
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

TEST_F(IoTest, LoadRejectsNonIntegerId) {
  LodesDataset original = SmallData();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  std::ofstream out(dir_ + "/places.csv");
  out << "name,population\ntown,not_a_number\n";
  out.close();
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

/// Replaces the first field of data row `row` (0-based, header excluded)
/// of the CSV file at `path` with `text`.
void ReplaceFirstField(const std::string& path, size_t row,
                       const std::string& text) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), row + 1) << path;
  std::string& line = lines[row + 1];
  line = text + line.substr(line.find(','));
  std::ofstream out(path);
  for (const std::string& l : lines) out << l << "\n";
}

TEST_F(IoTest, LoadRefusesIntegersOutsideInt64) {
  const std::string max = std::to_string(std::numeric_limits<int64_t>::max());
  const std::string min = std::to_string(std::numeric_limits<int64_t>::min());
  // Job 1 is worker 1's job: both files name the same new worker id.
  for (const std::string& id : {max, min}) {
    SCOPED_TRACE(id);
    ASSERT_TRUE(SaveDataset(SmallData(), dir_).ok());
    ReplaceFirstField(dir_ + "/workers.csv", 0, id);
    ReplaceFirstField(dir_ + "/jobs.csv", 0, id);
    auto loaded = LoadDataset(dir_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().jobs().column(0).int64s()[0], std::stoll(id));
  }
  for (const std::string& population : {max, min}) {
    SCOPED_TRACE(population);
    ASSERT_TRUE(SaveDataset(SmallData(), dir_).ok());
    std::ofstream(dir_ + "/places.csv", std::ios::app)
        << "extra_place," << population << "\n";
    auto loaded = LoadDataset(dir_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().places().back().population,
              std::stoll(population));
  }

  // One past each bound: strtoll would saturate at the bound.
  for (const char* text :
       {"9223372036854775808", "-9223372036854775809",
        "99999999999999999999"}) {
    SCOPED_TRACE(text);
    ASSERT_TRUE(SaveDataset(SmallData(), dir_).ok());
    ReplaceFirstField(dir_ + "/jobs.csv", 0, text);
    const Status jobs = LoadDataset(dir_).status();
    EXPECT_EQ(jobs.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(jobs.message().find(text), std::string::npos) << jobs.message();

    ASSERT_TRUE(SaveDataset(SmallData(), dir_).ok());
    std::ofstream(dir_ + "/places.csv", std::ios::app)
        << "extra_place," << text << "\n";
    const Status places = LoadDataset(dir_).status();
    EXPECT_EQ(places.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(places.message().find(text), std::string::npos)
        << places.message();
  }
}

}  // namespace
}  // namespace eep::lodes
