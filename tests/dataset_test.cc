#include "lodes/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lodes/generator.h"
#include "table/group_by.h"
#include "table/table.h"

namespace eep::lodes {
namespace {

// Hand-built two-establishment dataset for precise assertions.
struct Fixture {
  AttributeDomains domains;
  table::Table workers;
  table::Table workplaces;
  table::Table jobs;
};

struct FixtureOptions {
  bool dangling_worker = false;
  bool dangling_estab = false;
  bool duplicate_job = false;
  /// Store the Worker rows last to first (the join gathers them).
  bool reverse_workers = false;
  /// Multiplies every worker and establishment id (sparse join keys).
  int64_t id_scale = 1;
  /// Workers take the jobs' worker-id column itself, as the generator
  /// builds them (one shared vector).
  bool share_worker_ids = false;
};

Fixture MakeFixture(const FixtureOptions& options) {
  auto domains =
      AttributeDomains::Create({{"small_town", 80}, {"big_city", 500000}})
          .value();
  using table::Column;

  // Workers: 4 workers; attributes (sex, age, race, eth, edu).
  std::vector<std::vector<uint32_t>> attrs = {
      {0, 1, 1, 0}, {3, 3, 4, 5}, {0, 0, 1, 0}, {0, 1, 0, 0}, {1, 3, 3, 0}};
  std::vector<int64_t> worker_ids = {1, 2, 3, 4};
  if (options.reverse_workers) {
    std::reverse(worker_ids.begin(), worker_ids.end());
    for (auto& codes : attrs) std::reverse(codes.begin(), codes.end());
  }
  for (int64_t& id : worker_ids) id *= options.id_scale;

  std::vector<int64_t> job_workers = {1, 2, 3, 4};
  std::vector<int64_t> job_estabs = {100, 100, 200, 200};
  if (options.dangling_worker) job_workers[0] = 999;
  if (options.dangling_estab) job_estabs[0] = 999;
  if (options.duplicate_job) job_workers[1] = 1;
  for (int64_t& id : job_workers) id *= options.id_scale;
  for (int64_t& id : job_estabs) id *= options.id_scale;
  const Column job_worker_ids = Column::OfInt64(std::move(job_workers));

  std::vector<Column> worker_columns = {options.share_worker_ids
                                            ? job_worker_ids
                                            : Column::OfInt64(worker_ids)};
  for (auto& codes : attrs) {
    worker_columns.push_back(Column::OfCategory(std::move(codes)));
  }
  auto workers = table::Table::Create(domains.WorkerSchema().value(),
                                      std::move(worker_columns))
                     .value();

  // Workplaces: estab 100 (sector 0, private, small_town),
  //             estab 200 (sector 15, state-local, big_city).
  auto workplaces =
      table::Table::Create(
          domains.WorkplaceSchema().value(),
          {Column::OfInt64({100 * options.id_scale, 200 * options.id_scale}),
           Column::OfCategory({0, 15}), Column::OfCategory({0, 1}),
           Column::OfCategory({0, 1})})
          .value();

  auto jobs = table::Table::Create(domains.JobSchema().value(),
                                   {job_worker_ids,
                                    Column::OfInt64(std::move(job_estabs))})
                  .value();

  return {std::move(domains), std::move(workers), std::move(workplaces),
          std::move(jobs)};
}

TEST(LodesDatasetTest, CreateJoinsWorkerFull) {
  Fixture f = MakeFixture({});
  auto data = LodesDataset::Create(f.domains, f.workers, f.workplaces,
                                   f.jobs)
                  .value();
  EXPECT_EQ(data.num_jobs(), 4);
  EXPECT_EQ(data.num_workers(), 4);
  EXPECT_EQ(data.num_establishments(), 2);
  const auto& full = data.worker_full();
  EXPECT_EQ(full.num_rows(), 4u);
  // Worker 3 works at estab 200 in big_city with education "BA+" (code 3).
  const auto& wids = full.ColumnByName(kColWorkerId).value()->int64s();
  const table::Column& places = *full.ColumnByName(kColPlace).value();
  const table::Column& edus = *full.ColumnByName(kColEducation).value();
  for (size_t i = 0; i < wids.size(); ++i) {
    if (wids[i] == 3) {
      EXPECT_EQ(places.code(i), 1u);
      EXPECT_EQ(edus.code(i), 3u);
    }
  }
}

Status CreateStatus(const FixtureOptions& options) {
  Fixture f = MakeFixture(options);
  return LodesDataset::Create(f.domains, f.workers, f.workplaces, f.jobs)
      .status();
}

TEST(LodesDatasetTest, RejectsDanglingWorker) {
  FixtureOptions options;
  options.dangling_worker = true;
  const Status st = CreateStatus(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "job references missing worker");
}

TEST(LodesDatasetTest, RejectsDanglingWorkplace) {
  FixtureOptions options;
  options.dangling_estab = true;
  const Status st = CreateStatus(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "job references missing workplace");
}

TEST(LodesDatasetTest, RejectsMultipleJobsPerWorker) {
  FixtureOptions options;
  options.duplicate_job = true;
  const Status st = CreateStatus(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "worker 1 holds more than one job");
}

// With one shared worker-id column Create skips its own one-job-per-worker
// index; the join's index over the same ids refuses the repeat instead.
TEST(LodesDatasetTest, RejectsARepeatedIdInASharedWorkerIdColumn) {
  FixtureOptions options;
  options.share_worker_ids = true;
  Fixture f = MakeFixture(options);
  EXPECT_EQ(f.jobs.ColumnByName(kColWorkerId).value()->AsInt64().value(),
            f.workers.ColumnByName(kColWorkerId).value()->AsInt64().value());
  EXPECT_TRUE(CreateStatus(options).ok());

  options.duplicate_job = true;
  const Status st = CreateStatus(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "HashJoin: duplicate right key 1");
}

// Workers stored out of job order make the join gather them, and ids far
// apart send both joins through the hash map; WorkerFull must not change
// beyond the scaled ids.
TEST(LodesDatasetTest, WorkerFullIgnoresWorkerOrderAndIdSpacing) {
  Fixture ordered = MakeFixture({});
  const table::Table expected =
      LodesDataset::Create(ordered.domains, ordered.workers,
                           ordered.workplaces, ordered.jobs)
          .value()
          .worker_full();
  FixtureOptions reversed;
  reversed.reverse_workers = true;
  FixtureOptions sparse;
  sparse.id_scale = 1'000'003;
  for (const FixtureOptions& options : {reversed, sparse}) {
    SCOPED_TRACE(options.id_scale);
    Fixture f = MakeFixture(options);
    auto data = LodesDataset::Create(f.domains, f.workers, f.workplaces,
                                     f.jobs);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    const table::Table& full = data.value().worker_full();
    ASSERT_EQ(full.num_columns(), expected.num_columns());
    ASSERT_EQ(full.num_rows(), expected.num_rows());
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      const table::Field& field = expected.schema().field(c);
      EXPECT_EQ(full.schema().field(c).name, field.name);
      if (field.type == table::DataType::kCategory) {
        for (size_t row = 0; row < expected.num_rows(); ++row) {
          EXPECT_EQ(full.column(c).code(row), expected.column(c).code(row))
              << field.name << " row " << row;
        }
        continue;
      }
      std::vector<int64_t> ids = expected.column(c).int64s();
      for (int64_t& id : ids) id *= options.id_scale;
      EXPECT_EQ(full.column(c).int64s(), ids) << field.name;
    }
  }
}

TEST(LodesDatasetTest, PlacePopulationLookup) {
  Fixture f = MakeFixture({});
  auto data =
      LodesDataset::Create(f.domains, f.workers, f.workplaces, f.jobs)
          .value();
  EXPECT_EQ(data.PlacePopulation(0).value(), 80);
  EXPECT_EQ(data.PlacePopulation(1).value(), 500000);
  EXPECT_FALSE(data.PlacePopulation(7).ok());
}

TEST(LodesDatasetTest, BuildGraphMatchesJobs) {
  Fixture f = MakeFixture({});
  auto data =
      LodesDataset::Create(f.domains, f.workers, f.workplaces, f.jobs)
          .value();
  auto graph = data.BuildGraph().value();
  EXPECT_EQ(graph.num_edges(), 4);
  EXPECT_EQ(graph.EstabDegree(100), 2);
  EXPECT_EQ(graph.EstabDegree(200), 2);
}

TEST(LodesDatasetTest, WorkplaceKeysMatchBruteForceForEveryOrderedSubset) {
  GeneratorConfig config;
  config.target_jobs = 20000;
  config.num_places = 20;
  const LodesDataset data = SyntheticLodesGenerator(config).Generate().value();
  const table::Table& workplaces = data.workplaces();
  const std::vector<std::string> all = {kColNaics, kColOwnership, kColPlace};
  int subsets = 0;
  for (int mask = 1; mask < 8; ++mask) {
    std::vector<std::string> attrs;
    for (int bit = 0; bit < 3; ++bit) {
      if ((mask >> bit) & 1) attrs.push_back(all[static_cast<size_t>(bit)]);
    }
    do {
      const auto codec =
          table::GroupKeyCodec::Create(workplaces.schema(), attrs).value();
      std::set<uint64_t> expected;
      for (size_t row = 0; row < workplaces.num_rows(); ++row) {
        std::vector<uint32_t> codes;
        for (size_t idx : codec.column_indices()) {
          codes.push_back(workplaces.column(idx).code(row));
        }
        expected.insert(codec.Pack(codes));
      }
      EXPECT_EQ(data.WorkplaceKeys(attrs).value(),
                std::vector<uint64_t>(expected.begin(), expected.end()))
          << "attrs=" << ::testing::PrintToString(attrs);
      ++subsets;
    } while (std::next_permutation(attrs.begin(), attrs.end()));
  }
  EXPECT_EQ(subsets, 15);

  EXPECT_EQ(data.WorkplaceKeys({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(data.WorkplaceKeys({kColSex}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace eep::lodes
