#include "lodes/marginal.h"

#include <gtest/gtest.h>

#include "lodes/generator.h"
#include "lodes/workload.h"
#include "table/group_by_cache.h"
#include "table/table.h"

namespace eep::lodes {
namespace {

// Tiny dataset: two places, three establishments, six workers. With
// `jobless_estab`, establishment 300 is added with no jobs, alone in the
// (town, "23", Federal) workplace combination.
LodesDataset TinyData(bool jobless_estab = false) {
  auto domains =
      AttributeDomains::Create({{"town", 80}, {"city", 200000}}).value();
  using table::Column;
  // Workers: ids 1..6, alternate sex; education: worker 3 is the only BA+.
  auto workers = table::Table::Create(
                     domains.WorkerSchema().value(),
                     {Column::OfInt64({1, 2, 3, 4, 5, 6}),
                      Column::OfCategory({0, 1, 0, 1, 0, 1}),   // sex
                      Column::OfCategory({3, 3, 3, 3, 3, 3}),   // age
                      Column::OfCategory({0, 0, 0, 0, 0, 0}),   // race
                      Column::OfCategory({0, 0, 0, 0, 0, 0}),   // eth
                      Column::OfCategory({1, 1, 3, 1, 1, 1})})  // edu
                     .value();
  // Estabs: 100 & 101 in (sector 0, private, town); 200 in (15, SL, city).
  std::vector<int64_t> estab_ids = {100, 101, 200};
  std::vector<uint32_t> naics = {0, 0, 15};
  std::vector<uint32_t> ownership = {0, 0, 1};
  std::vector<uint32_t> places = {0, 0, 1};
  if (jobless_estab) {
    estab_ids.push_back(300);
    naics.push_back(3);
    ownership.push_back(2);
    places.push_back(0);
  }
  auto workplaces = table::Table::Create(
                        domains.WorkplaceSchema().value(),
                        {Column::OfInt64(std::move(estab_ids)),
                         Column::OfCategory(std::move(naics)),
                         Column::OfCategory(std::move(ownership)),
                         Column::OfCategory(std::move(places))})
                        .value();
  // Jobs: estab 100 gets workers 1,2,3; estab 101 gets worker 4;
  // estab 200 gets workers 5,6.
  auto jobs = table::Table::Create(
                  domains.JobSchema().value(),
                  {Column::OfInt64({1, 2, 3, 4, 5, 6}),
                   Column::OfInt64({100, 100, 100, 101, 200, 200})})
                  .value();
  return LodesDataset::Create(std::move(domains), std::move(workers),
                              std::move(workplaces), std::move(jobs))
      .value();
}

TEST(MarginalSpecTest, Validation) {
  EXPECT_FALSE((MarginalSpec{{}, {}}).Validate().ok());
  EXPECT_FALSE((MarginalSpec{{kColSex}, {}}).Validate().ok());
  EXPECT_FALSE((MarginalSpec{{kColPlace}, {kColNaics}}).Validate().ok());
  EXPECT_FALSE((MarginalSpec{{kColPlace, kColPlace}, {}}).Validate().ok());
  EXPECT_TRUE(MarginalSpec::EstablishmentMarginal().Validate().ok());
  EXPECT_TRUE(MarginalSpec::WorkplaceBySexEducation().Validate().ok());
}

TEST(MarginalSpecTest, ByNameResolvesNamedSpecs) {
  EXPECT_EQ(MarginalSpec::ByName("establishment").value().AllColumns(),
            MarginalSpec::EstablishmentMarginal().AllColumns());
  EXPECT_EQ(MarginalSpec::ByName("workplace_sexedu").value().AllColumns(),
            MarginalSpec::WorkplaceBySexEducation().AllColumns());
  EXPECT_EQ(MarginalSpec::ByName("sexedu").value().AllColumns(),
            MarginalSpec::WorkplaceBySexEducation().AllColumns());
  EXPECT_EQ(MarginalSpec::ByName("full_demographics").value().AllColumns(),
            MarginalSpec::FullDemographics().AllColumns());
  EXPECT_EQ(MarginalSpec::ByName("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MarginalSpecTest, AllColumnsOrder) {
  MarginalSpec spec = MarginalSpec::WorkplaceBySexEducation();
  const auto all = spec.AllColumns();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0], kColPlace);
  EXPECT_EQ(all[3], kColSex);
  EXPECT_EQ(all[4], kColEducation);
  EXPECT_TRUE(spec.HasWorkerAttrs());
  EXPECT_FALSE(MarginalSpec::EstablishmentMarginal().HasWorkerAttrs());
}

TEST(MarginalQueryTest, EstablishmentMarginalCells) {
  LodesDataset data = TinyData();
  auto query = MarginalQuery::Compute(
                   data, MarginalSpec::EstablishmentMarginal())
                   .value();
  // Only two workplace combos exist -> 2 released cells (establishment
  // existence is public; absent combos are not released).
  ASSERT_EQ(query.cells().size(), 2u);
  EXPECT_EQ(query.WorkerDomainSize(), 1);

  // Cell (town, 0, private): workers 1-4 across estabs 100 (3) and 101 (1).
  const auto& c0 = query.cells()[0];
  EXPECT_EQ(c0.count, 4);
  EXPECT_EQ(c0.x_v, 3);
  EXPECT_EQ(c0.num_estabs, 2);
  EXPECT_EQ(data.PlacePopulation(c0.place_code).value(), 80);

  const auto& c1 = query.cells()[1];
  EXPECT_EQ(c1.count, 2);
  EXPECT_EQ(c1.x_v, 2);
  EXPECT_EQ(c1.num_estabs, 1);
}

TEST(MarginalQueryTest, WorkerMarginalEnumeratesFullWorkerDomain) {
  LodesDataset data = TinyData();
  MarginalSpec spec{{kColPlace, kColNaics, kColOwnership},
                    {kColSex, kColEducation}};
  auto query = MarginalQuery::Compute(data, spec).value();
  // 2 present workplace combos x (2 sexes x 4 educations) = 16 cells,
  // including zero cells (the SDL attack surface).
  EXPECT_EQ(query.WorkerDomainSize(), 8);
  ASSERT_EQ(query.cells().size(), 16u);
  int64_t total = 0;
  int64_t zero_cells = 0;
  for (const auto& cell : query.cells()) {
    total += cell.count;
    if (cell.count == 0) {
      ++zero_cells;
      EXPECT_EQ(cell.x_v, 0);
      EXPECT_EQ(cell.num_estabs, 0);
    }
  }
  EXPECT_EQ(total, 6);
  EXPECT_GT(zero_cells, 0);
}

TEST(MarginalQueryTest, SliceKeysMatchWorkerDomainModulo) {
  LodesDataset data = TinyData();
  MarginalSpec spec{{kColPlace, kColNaics, kColOwnership},
                    {kColSex, kColEducation}};
  auto query = MarginalQuery::Compute(data, spec).value();
  // The (male, BA+) slice has ikey = 0*4+3 = 3; worker 3 is the only match,
  // employed in the town combo.
  int64_t slice_total = 0;
  for (const auto& cell : query.cells()) {
    if (cell.key % 8 == 3) slice_total += cell.count;
  }
  EXPECT_EQ(slice_total, 1);
}

TEST(MarginalQueryTest, TrueCountsVectorMatchesCells) {
  LodesDataset data = TinyData();
  auto query = MarginalQuery::Compute(
                   data, MarginalSpec::EstablishmentMarginal())
                   .value();
  const auto counts = query.TrueCounts();
  ASSERT_EQ(counts.size(), query.cells().size());
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], static_cast<double>(query.cells()[i].count));
  }
}

TEST(MarginalQueryTest, WorkerOnlyMarginal) {
  LodesDataset data = TinyData();
  MarginalSpec spec{{}, {kColSex}};
  auto query = MarginalQuery::Compute(data, spec).value();
  ASSERT_EQ(query.cells().size(), 2u);
  EXPECT_EQ(query.cells()[0].count, 3);  // males
  EXPECT_EQ(query.cells()[1].count, 3);  // females
  EXPECT_EQ(query.cells()[0].place_code, kNoPlace);
  EXPECT_EQ(query.PlacePopulation(query.cells()[0]), 0);
}

TEST(MarginalQueryTest, GroupedContributionsAccessible) {
  LodesDataset data = TinyData();
  auto query = MarginalQuery::Compute(
                   data, MarginalSpec::EstablishmentMarginal())
                   .value();
  const auto* grouped = query.grouped().Find(query.cells()[0].key);
  ASSERT_NE(grouped, nullptr);
  const table::ContributionSpan contributions =
      query.grouped().ContributionsOf(*grouped);
  ASSERT_EQ(contributions.size(), 2u);
  EXPECT_EQ(contributions[0].estab_id, 100);
  EXPECT_EQ(contributions[0].count, 3);
  // The cell's recorded grouped-cell index reaches the same range.
  const table::ContributionSpan via_cell =
      query.ContributionsOf(query.cells()[0]);
  EXPECT_EQ(via_cell.data(), contributions.data());
  EXPECT_EQ(via_cell.size(), contributions.size());
}

TEST(MarginalQueryTest, FindCellByValues) {
  LodesDataset data = TinyData();
  auto query = MarginalQuery::Compute(
                   data, MarginalSpec::EstablishmentMarginal())
                   .value();
  auto cell = query.FindCell(
      {{kColPlace, "town"}, {kColNaics, "11"}, {kColOwnership, "Private"}});
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_EQ(cell.value()->count, 4);

  // Workplace combination with no establishment: not released.
  auto absent = query.FindCell(
      {{kColPlace, "city"}, {kColNaics, "11"}, {kColOwnership, "Private"}});
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);

  // Unknown dictionary value and missing attribute.
  EXPECT_FALSE(query
                   .FindCell({{kColPlace, "nowhere"},
                              {kColNaics, "11"},
                              {kColOwnership, "Private"}})
                   .ok());
  EXPECT_FALSE(query.FindCell({{kColPlace, "town"}}).ok());
}

TEST(MarginalQueryTest, FindCellWithWorkerAttrs) {
  LodesDataset data = TinyData();
  MarginalSpec spec{{kColPlace, kColNaics, kColOwnership},
                    {kColSex, kColEducation}};
  auto query = MarginalQuery::Compute(data, spec).value();
  // Worker 3 is the only male BA+ in the town combo.
  auto cell = query.FindCell({{kColPlace, "town"},
                              {kColNaics, "11"},
                              {kColOwnership, "Private"},
                              {kColSex, "M"},
                              {kColEducation, "BA+"}});
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell.value()->count, 1);
  // Zero cells inside a released workplace combo ARE released.
  auto zero = query.FindCell({{kColPlace, "city"},
                              {kColNaics, "62"},
                              {kColOwnership, "StateLocal"},
                              {kColSex, "M"},
                              {kColEducation, "BA+"}});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value()->count, 0);
}

TEST(MarginalQueryTest, ConsistentWithGeneratorData) {
  GeneratorConfig config;
  config.target_jobs = 5000;
  config.num_places = 16;
  config.seed = 3;
  auto data = SyntheticLodesGenerator(config).Generate().value();
  auto query = MarginalQuery::Compute(
                   data, MarginalSpec::EstablishmentMarginal())
                   .value();
  int64_t total = 0;
  for (const auto& cell : query.cells()) {
    total += cell.count;
    EXPECT_LE(cell.x_v, cell.count);
    EXPECT_GE(cell.num_estabs, cell.count > 0 ? 1 : 0);
  }
  EXPECT_EQ(total, data.num_jobs());
}

TEST(MarginalQueryTest, ComputeIsThreadCountInvariant) {
  // The parallel group-by and merge-join enumeration must yield the exact
  // same cells (keys, counts, x_v, establishment breakdown, place codes)
  // for every worker count.
  GeneratorConfig config;
  config.seed = 7;
  config.target_jobs = 6000;
  config.num_places = 12;
  auto data = SyntheticLodesGenerator(config).Generate().value();
  for (const MarginalSpec& spec :
       {MarginalSpec::EstablishmentMarginal(),
        MarginalSpec::WorkplaceBySexEducation(),
        MarginalSpec::FullDemographics()}) {
    auto base = MarginalQuery::Compute(data, spec).value();
    for (int threads : {2, 4, 8}) {
      auto parallel = MarginalQuery::Compute(data, spec, threads).value();
      ASSERT_EQ(parallel.cells().size(), base.cells().size());
      for (size_t i = 0; i < base.cells().size(); ++i) {
        const MarginalCell& a = base.cells()[i];
        const MarginalCell& b = parallel.cells()[i];
        ASSERT_EQ(a.key, b.key) << "threads=" << threads;
        ASSERT_EQ(a.count, b.count) << "threads=" << threads;
        ASSERT_EQ(a.x_v, b.x_v) << "threads=" << threads;
        ASSERT_EQ(a.num_estabs, b.num_estabs) << "threads=" << threads;
        ASSERT_EQ(a.place_code, b.place_code) << "threads=" << threads;
      }
      ASSERT_EQ(parallel.grouped().cells.size(), base.grouped().cells.size());
    }
  }
}

TEST(MarginalQueryTest, PlaceCodeMatchesCodecUnpack) {
  // The merge-join path extracts place_code arithmetically from the packed
  // workplace key; it must agree with the codec's general Unpack.
  LodesDataset data = TinyData();
  for (const MarginalSpec& spec :
       {MarginalSpec::EstablishmentMarginal(),
        MarginalSpec::WorkplaceBySexEducation(),
        MarginalSpec{{kColNaics, kColPlace}, {kColSex}}}) {
    auto query = MarginalQuery::Compute(data, spec).value();
    int place_slot = -1;
    for (size_t i = 0; i < spec.workplace_attrs.size(); ++i) {
      if (spec.workplace_attrs[i] == kColPlace) {
        place_slot = static_cast<int>(i);
      }
    }
    ASSERT_GE(place_slot, 0);
    for (const MarginalCell& cell : query.cells()) {
      EXPECT_EQ(cell.place_code,
                query.codec().Unpack(cell.key)[place_slot]);
    }
  }
}

// The jobless establishment's combination is public (Section 4.1), so it is
// released: one cell per worker-attribute combination (1 for the
// establishment marginal, 8 for sex x education), each with count 0 and
// x_v 0.
void ExpectJoblessCombinationReleased(const MarginalQuery& query) {
  const std::map<std::string, std::string> workplace = {
      {kColPlace, "town"}, {kColNaics, "23"}, {kColOwnership, "Federal"}};
  std::vector<std::map<std::string, std::string>> cells;
  if (query.spec().HasWorkerAttrs()) {
    for (const std::string& sex : SexCodes()) {
      for (const std::string& education : EducationCodes()) {
        auto values = workplace;
        values[kColSex] = sex;
        values[kColEducation] = education;
        cells.push_back(std::move(values));
      }
    }
  } else {
    cells.push_back(workplace);
  }
  EXPECT_EQ(static_cast<int64_t>(cells.size()), query.WorkerDomainSize());
  for (const auto& values : cells) {
    auto cell = query.FindCell(values);
    ASSERT_TRUE(cell.ok()) << cell.status().ToString();
    EXPECT_EQ(cell.value()->count, 0);
    EXPECT_EQ(cell.value()->x_v, 0);
  }
}

TEST(JoblessEstablishmentTest, ComputeReleasesItsCombination) {
  const LodesDataset data = TinyData(/*jobless_estab=*/true);
  const auto establishment =
      MarginalQuery::Compute(data, MarginalSpec::EstablishmentMarginal())
          .value();
  EXPECT_EQ(establishment.cells().size(), 3u);
  ExpectJoblessCombinationReleased(establishment);
  const auto sexedu =
      MarginalQuery::Compute(data, MarginalSpec::WorkplaceBySexEducation())
          .value();
  EXPECT_EQ(sexedu.cells().size(), 24u);
  ExpectJoblessCombinationReleased(sexedu);
}

TEST(JoblessEstablishmentTest, WorkloadReleasesItsCombination) {
  const LodesDataset data = TinyData(/*jobless_estab=*/true);
  const auto queries =
      ComputeWorkload(data, WorkloadSpec::PaperTabulations()).value();
  ASSERT_EQ(queries.size(), 2u);
  for (const MarginalQuery& query : queries) {
    ExpectJoblessCombinationReleased(query);
  }
}

TEST(JoblessEstablishmentTest, CacheWarmedWorkloadReleasesItsCombination) {
  const LodesDataset data = TinyData(/*jobless_estab=*/true);
  table::GroupByCache cache;
  const WorkloadSpec workload = WorkloadSpec::PaperTabulations();
  ASSERT_TRUE(ComputeWorkload(data, workload, 1, &cache).ok());
  WorkloadComputeStats stats;
  const auto queries =
      ComputeWorkload(data, workload, 1, &cache, &stats).value();
  EXPECT_EQ(stats.full_table_scans, 0);
  ASSERT_EQ(queries.size(), 2u);
  for (const MarginalQuery& query : queries) {
    ExpectJoblessCombinationReleased(query);
  }
}

}  // namespace
}  // namespace eep::lodes
