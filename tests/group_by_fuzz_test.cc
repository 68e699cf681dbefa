// Fuzz tests: the group-by engine and marginal layer checked against a
// naive reference implementation on randomly generated tables, swept over
// sizes and seeds with parameterized gtest. Random-order cases exercise the
// radix scan path; establishment-ordered cases exercise the dense path and
// both sides of its gate (see table/partitioned_group_by.h).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/random.h"
#include "table/group_by.h"
#include "table/partitioned_group_by.h"
#include "table/table.h"

namespace eep::table {
namespace {

/// Row order of a case's establishment ids.
enum class Order {
  kRandom,      ///< Each row draws its id independently.
  kSorted,      ///< Establishment order: runs of ascending ids.
  kDescending,  ///< Clustered by establishment, runs in descending order.
};

struct FuzzCase {
  uint64_t seed;
  size_t num_rows;
  uint32_t radix_a;
  uint32_t radix_b;
  int num_estabs;
  Order order = Order::kRandom;
  /// Path the 1-thread scan must take; unchecked when unset.
  std::optional<ScanPath> path = std::nullopt;
};

/// Establishment-clustered ids with about `num_estabs` runs: at least a
/// third of the runs are one row long, ids ascend by random gaps from a
/// negative start, and the row at every naive worker-block seam (row
/// n*w/t for t = 2, 3, 4, 8) joins the establishment before it, so an
/// establishment straddles each seam.
std::vector<int64_t> ClusteredEstabIds(Rng& rng, size_t n, int num_estabs) {
  const int64_t mean_run =
      std::max<int64_t>(1, static_cast<int64_t>(n) / num_estabs);
  std::vector<int64_t> ids;
  ids.reserve(n);
  int64_t id = -rng.UniformInt(0, 5);
  while (ids.size() < n) {
    const int64_t run =
        rng.UniformInt(0, 2) == 0 ? 1 : rng.UniformInt(1, 2 * mean_run);
    for (int64_t r = 0; r < run && ids.size() < n; ++r) ids.push_back(id);
    id += rng.UniformInt(1, 3);
  }
  for (size_t t : {2, 3, 4, 8}) {
    for (size_t w = 1; w < t; ++w) {
      const size_t seam = n * w / t;
      if (seam > 0 && seam < n) ids[seam] = ids[seam - 1];
    }
  }
  return ids;
}

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
    if (fuzz.order == Order::kRandom) {
      estabs[i] = rng.UniformInt(1, fuzz.num_estabs);
    }
    as[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_a - 1));
    bs[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_b - 1));
  }
  if (fuzz.order != Order::kRandom) {
    estabs = ClusteredEstabIds(rng, fuzz.num_rows, fuzz.num_estabs);
    if (fuzz.order == Order::kDescending) {
      for (int64_t& id : estabs) id = -id;
    }
  }
  auto t = Table::Create(schema, {Column::OfInt64(estabs),
                                  Column::OfCategory(as),
                                  Column::OfCategory(bs)})
               .value();

  if (fuzz.path.has_value()) {
    const uint64_t domain = uint64_t{fuzz.radix_a} * fuzz.radix_b;
    EXPECT_EQ(ChooseScanPath(estabs, domain, 1), *fuzz.path);
  }
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

  // The parallel engine is thread-count-invariant: 2/3/4/8 workers must
  // reproduce the single-threaded grouping bit for bit, whichever path
  // each thread count takes.
  for (int threads : {2, 3, 4, 8}) {
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
                      FuzzCase{9, 100000, 2, 2, 20000},
                      // Establishment order: the dense path, with
                      // establishments straddling every worker seam.
                      FuzzCase{10, 50000, 6, 8, 2000, Order::kSorted,
                               ScanPath::kDense},
                      // Mostly single-row establishments.
                      FuzzCase{11, 3000, 3, 5, 2500, Order::kSorted,
                               ScanPath::kDense},
                      FuzzCase{12, 1, 4, 4, 1, Order::kSorted,
                               ScanPath::kDense},
                      // Clustered but descending: the radix path.
                      FuzzCase{13, 20000, 4, 4, 300, Order::kDescending,
                               ScanPath::kRadix},
                      // Domains at and just past the dense bound
                      // max(rows, 2^16) / workers: the 2^16 floor, then
                      // the row count. Two or more workers halve the bound,
                      // so the thread sweep crosses to the radix path.
                      FuzzCase{14, 1000, 256, 256, 100, Order::kSorted,
                               ScanPath::kDense},
                      FuzzCase{15, 1000, 257, 256, 100, Order::kSorted,
                               ScanPath::kRadix},
                      FuzzCase{16, 70000, 250, 280, 5000, Order::kSorted,
                               ScanPath::kDense},
                      FuzzCase{17, 70000, 251, 279, 5000, Order::kSorted,
                               ScanPath::kRadix}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      const char* order = info.param.order == Order::kSorted ? "_sorted"
                          : info.param.order == Order::kDescending
                              ? "_descending"
                              : "";
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.num_rows) + order;
    });

}  // namespace
}  // namespace eep::table
