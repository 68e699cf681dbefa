// Fuzz tests: the group-by engine and marginal layer checked against a
// naive reference implementation on randomly generated tables, swept over
// sizes and seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "table/group_by.h"
#include "table/table.h"

namespace eep::table {
namespace {

struct FuzzCase {
  uint64_t seed;
  size_t num_rows;
  uint32_t radix_a;
  uint32_t radix_b;
  int num_estabs;
};

class GroupByFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

std::vector<std::string> MakeValues(uint32_t n, const std::string& prefix) {
  std::vector<std::string> values;
  for (uint32_t i = 0; i < n; ++i) {
    values.push_back(prefix + std::to_string(i));
  }
  return values;
}

TEST_P(GroupByFuzzTest, MatchesNaiveReference) {
  const FuzzCase fuzz = GetParam();
  Rng rng(fuzz.seed);

  auto dict_a = Dictionary::Create(MakeValues(fuzz.radix_a, "a")).value();
  auto dict_b = Dictionary::Create(MakeValues(fuzz.radix_b, "b")).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"attr_a", DataType::kCategory, dict_a},
                                {"attr_b", DataType::kCategory, dict_b}})
                    .value();

  std::vector<int64_t> estabs(fuzz.num_rows);
  std::vector<uint32_t> as(fuzz.num_rows), bs(fuzz.num_rows);
  for (size_t i = 0; i < fuzz.num_rows; ++i) {
    estabs[i] = rng.UniformInt(1, fuzz.num_estabs);
    as[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_a - 1));
    bs[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_b - 1));
  }
  auto t = Table::Create(schema, {Column::OfInt64(estabs),
                                  Column::OfCategory(as),
                                  Column::OfCategory(bs)})
               .value();

  auto grouped =
      GroupCountByEstablishment(t, {"attr_a", "attr_b"}, "estab").value();

  // Naive reference: nested maps.
  std::map<std::pair<uint32_t, uint32_t>, int64_t> ref_counts;
  std::map<std::pair<uint32_t, uint32_t>, std::map<int64_t, int64_t>>
      ref_contribs;
  for (size_t i = 0; i < fuzz.num_rows; ++i) {
    ++ref_counts[{as[i], bs[i]}];
    ++ref_contribs[{as[i], bs[i]}][estabs[i]];
  }

  ASSERT_EQ(grouped.cells.size(), ref_counts.size());
  for (const auto& [ab, count] : ref_counts) {
    const uint64_t key = grouped.codec.Pack({ab.first, ab.second});
    const GroupedCell* cell = grouped.Find(key);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->count, count);
    const auto& ref = ref_contribs[ab];
    ASSERT_EQ(cell->contributions.size(), ref.size());
    int64_t max_contrib = 0;
    for (const auto& contrib : cell->contributions) {
      auto it = ref.find(contrib.estab_id);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(contrib.count, it->second);
      max_contrib = std::max(max_contrib, it->second);
    }
    EXPECT_EQ(cell->MaxEstabContribution(), max_contrib);
  }

  // The parallel engine is thread-count-invariant: 2/4/8 workers must
  // reproduce the single-threaded grouping bit for bit.
  for (int threads : {2, 4, 8}) {
    auto parallel = GroupCountByEstablishment(t, {"attr_a", "attr_b"},
                                              "estab", GroupByOptions{threads})
                        .value();
    ASSERT_EQ(parallel.cells.size(), grouped.cells.size())
        << "threads=" << threads;
    for (size_t i = 0; i < grouped.cells.size(); ++i) {
      const GroupedCell& a = grouped.cells[i];
      const GroupedCell& b = parallel.cells[i];
      ASSERT_EQ(a.key, b.key) << "threads=" << threads;
      ASSERT_EQ(a.count, b.count) << "threads=" << threads;
      ASSERT_EQ(a.contributions.size(), b.contributions.size())
          << "threads=" << threads;
      for (size_t c = 0; c < a.contributions.size(); ++c) {
        ASSERT_EQ(a.contributions[c].estab_id, b.contributions[c].estab_id);
        ASSERT_EQ(a.contributions[c].count, b.contributions[c].count);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupByFuzzTest,
    ::testing::Values(FuzzCase{1, 10, 2, 2, 2}, FuzzCase{2, 100, 3, 4, 5},
                      FuzzCase{3, 1000, 5, 7, 20},
                      FuzzCase{4, 5000, 2, 30, 100},
                      FuzzCase{5, 20000, 20, 3, 500},
                      FuzzCase{6, 1, 4, 4, 1},
                      FuzzCase{7, 3000, 1, 1, 50},
                      // Large enough to span several range partitions.
                      FuzzCase{8, 200000, 30, 40, 3000},
                      // More establishments than cells: long contribution
                      // lists exercise the packed run-length pass.
                      FuzzCase{9, 100000, 2, 2, 20000}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.num_rows);
    });

}  // namespace
}  // namespace eep::table
