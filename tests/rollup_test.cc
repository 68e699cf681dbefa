// Cube roll-up correctness: a grouping derived by RollupGroupedCounts from
// a finer grouping must be BIT-IDENTICAL to grouping the table directly on
// the coarse columns, for every thread count and any column-subset shape
// (suffix, prefix, middle, permuted), whether or not the projected keys
// need sorting and however wide the runs of equal coarse keys are. Also
// covers the GroupByCache serving policy (exact hit / superset roll-up /
// scan).
#include <gtest/gtest.h>

#include "common/random.h"
#include "table/group_by.h"
#include "table/group_by_cache.h"
#include "table/rollup.h"
#include "table/table.h"

namespace eep::table {
namespace {

std::vector<std::string> MakeValues(uint32_t n, const std::string& prefix) {
  std::vector<std::string> values;
  for (uint32_t i = 0; i < n; ++i) {
    values.push_back(prefix + std::to_string(i));
  }
  return values;
}

/// Dictionary radices of attr_a, attr_b, attr_c and the establishment id
/// range of a random table.
struct TableShape {
  uint32_t radix_a = 5;
  uint32_t radix_b = 3;
  uint32_t radix_c = 4;
  int64_t min_estab = 1;
  int64_t max_estab = 150;
};

/// A random table with three categorical columns and an int64
/// establishment column, rows drawn uniformly from `shape`.
Table MakeShapedTable(uint64_t seed, size_t num_rows, const TableShape& shape) {
  Rng rng(seed);
  auto dict_a = Dictionary::Create(MakeValues(shape.radix_a, "a")).value();
  auto dict_b = Dictionary::Create(MakeValues(shape.radix_b, "b")).value();
  auto dict_c = Dictionary::Create(MakeValues(shape.radix_c, "c")).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"attr_a", DataType::kCategory, dict_a},
                                {"attr_b", DataType::kCategory, dict_b},
                                {"attr_c", DataType::kCategory, dict_c}})
                    .value();
  std::vector<int64_t> estabs(num_rows);
  std::vector<uint32_t> as(num_rows), bs(num_rows), cs(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    estabs[i] = rng.UniformInt(shape.min_estab, shape.max_estab);
    as[i] = static_cast<uint32_t>(rng.UniformInt(0, shape.radix_a - 1));
    bs[i] = static_cast<uint32_t>(rng.UniformInt(0, shape.radix_b - 1));
    cs[i] = static_cast<uint32_t>(rng.UniformInt(0, shape.radix_c - 1));
  }
  return Table::Create(schema,
                       {Column::OfInt64(estabs), Column::OfCategory(as),
                        Column::OfCategory(bs), Column::OfCategory(cs)})
      .value();
}

/// A random table with radices 5, 3, 4 and establishment ids 1..num_estabs.
Table MakeRandomTable(uint64_t seed, size_t num_rows, int num_estabs) {
  TableShape shape;
  shape.max_estab = num_estabs;
  return MakeShapedTable(seed, num_rows, shape);
}

void ExpectCellsEqual(const std::vector<GroupedCell>& expected,
                      const std::vector<GroupedCell>& actual,
                      const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const GroupedCell& e = expected[i];
    const GroupedCell& a = actual[i];
    ASSERT_EQ(e.key, a.key) << context << " cell " << i;
    ASSERT_EQ(e.count, a.count) << context << " cell " << i;
    ASSERT_EQ(e.contributions.size(), a.contributions.size())
        << context << " cell " << i;
    for (size_t c = 0; c < e.contributions.size(); ++c) {
      ASSERT_EQ(e.contributions[c].estab_id, a.contributions[c].estab_id)
          << context << " cell " << i;
      ASSERT_EQ(e.contributions[c].count, a.contributions[c].count)
          << context << " cell " << i;
    }
  }
}

TEST(RollupTest, MatchesDirectGroupByForEverySubsetShapeAndThreadCount) {
  struct Input {
    std::string name;
    uint64_t seed;
    size_t rows;
    TableShape shape;
  };
  const std::vector<Input> inputs = {
      {"random", 11, 20000, {}},
      // Negative establishment ids, and non-prefix shapes whose runs exceed
      // 16 cells and 128 gathered items ({attr_c}: 48 cells per run), so
      // wide runs radix-sort ids rebased to the run's minimum.
      {"negative-ids-wide-runs", 12, 30000, {6, 8, 5, -120, 79}},
      // A one-value attr_b: {attr_a, attr_c} is not a prefix, yet its keys
      // come out ordered (no sort), and {attr_b} is one run, fewer runs
      // than threads.
      {"constant-middle-column", 13, 2000, {5, 1, 4, 1, 40}},
      {"empty", 14, 0, {}},
  };
  const std::vector<std::vector<std::string>> subsets = {
      {"attr_a", "attr_b"},            // prefix
      {"attr_a"},                      // shorter prefix
      {"attr_b", "attr_c"},            // drop the outermost
      {"attr_a", "attr_c"},            // drop a middle digit
      {"attr_c", "attr_a"},            // permuted order
      {"attr_b"},                      // non-prefix single
      {"attr_c"},                      // innermost digit alone
      {"attr_a", "attr_b", "attr_c"},  // identity projection
  };
  for (const Input& input : inputs) {
    const Table t = MakeShapedTable(input.seed, input.rows, input.shape);
    const GroupedCounts base =
        GroupCountByEstablishment(t, {"attr_a", "attr_b", "attr_c"}, "estab")
            .value();
    for (const auto& columns : subsets) {
      const GroupedCounts direct =
          GroupCountByEstablishment(t, columns, "estab").value();
      for (int threads : {1, 2, 4, 8}) {
        const GroupedCounts rolled =
            RollupGroupedCounts(
                base, GroupKeyCodec::Create(t.schema(), columns).value(),
                threads)
                .value();
        std::string context = input.name + " columns={";
        for (const auto& c : columns) context += c + ",";
        context += "} threads=" + std::to_string(threads);
        // Sorted or not, narrow or wide runs: the roll-up must agree bit for
        // bit with the direct scan, the equality that makes the planner's
        // choice unobservable.
        ExpectCellsEqual(direct.cells, rolled.cells, context);
      }
    }
  }
}

TEST(RollupTest, WideRunPrefixMergeMatchesDirect) {
  // A single-column prefix roll-up whose summed-out suffix domain (6x5=30)
  // exceeds the sequential-merge threshold, forcing the gather+sort run
  // strategy — which must agree bit for bit with the direct scan (and so
  // with the pairwise-merge strategy) at every thread count.
  const Table t = MakeShapedTable(/*seed=*/314, /*num_rows=*/30000,
                                  {4, 6, 5, 1, 200});
  const GroupedCounts base =
      GroupCountByEstablishment(t, {"attr_a", "attr_b", "attr_c"}, "estab")
          .value();
  const GroupedCounts direct =
      GroupCountByEstablishment(t, {"attr_a"}, "estab").value();
  for (int threads : {1, 2, 4, 8}) {
    const GroupedCounts rolled =
        RollupGroupedCounts(base,
                            GroupKeyCodec::Create(t.schema(), {"attr_a"})
                                .value(),
                            threads)
            .value();
    ExpectCellsEqual(direct.cells, rolled.cells,
                     "wide-run threads=" + std::to_string(threads));
  }
}

TEST(RollupTest, FuzzAdversarialColumnOrders) {
  // Random base orders (never the canonical schema order), random subset
  // shapes and permutations, every thread count: rolled must equal direct
  // whether or not the projected keys need sorting. This is the fuzz case
  // for the sortedness test and the digit fusion of KeyProjection: a wrong
  // one would silently produce unsorted or mis-merged cells. The first 12
  // rounds draw radices 5, 3, 4 and ids 1..25; the rest draw radices in
  // 1..8 (a one-value column keeps a non-prefix projection ordered), ids
  // that may be negative, and round 12 is an empty table.
  Rng rng(20260729);
  const std::vector<std::string> all = {"attr_a", "attr_b", "attr_c"};
  for (int round = 0; round < 24; ++round) {
    TableShape shape;
    shape.max_estab = 25;
    size_t rows = 3000;
    if (round >= 12) {
      shape.radix_a = static_cast<uint32_t>(rng.UniformInt(1, 8));
      shape.radix_b = static_cast<uint32_t>(rng.UniformInt(1, 8));
      shape.radix_c = static_cast<uint32_t>(rng.UniformInt(1, 8));
      shape.min_estab = rng.UniformInt(-300, 1);
      shape.max_estab = shape.min_estab + rng.UniformInt(0, 200);
      if (round == 12) rows = 0;
    }
    const Table t = MakeShapedTable(
        /*seed=*/1000 + static_cast<uint64_t>(round), rows, shape);
    std::vector<std::string> base_columns = all;
    for (size_t i = base_columns.size(); i > 1; --i) {
      std::swap(base_columns[i - 1],
                base_columns[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    const GroupedCounts base =
        GroupCountByEstablishment(t, base_columns, "estab").value();
    // Random non-empty subset, randomly permuted.
    std::vector<std::string> columns;
    for (const auto& c : base_columns) {
      if (rng.UniformInt(0, 1) == 1) columns.push_back(c);
    }
    if (columns.empty()) columns.push_back(base_columns[0]);
    for (size_t i = columns.size(); i > 1; --i) {
      std::swap(columns[i - 1],
                columns[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    const GroupedCounts direct =
        GroupCountByEstablishment(t, columns, "estab").value();
    for (int threads : {1, 2, 4, 8}) {
      const GroupedCounts rolled =
          RollupGroupedCounts(base,
                              GroupKeyCodec::Create(t.schema(), columns)
                                  .value(),
                              threads)
              .value();
      std::string context = "round=" + std::to_string(round) + " base={";
      for (const auto& c : base_columns) context += c + ",";
      context += "} columns={";
      for (const auto& c : columns) context += c + ",";
      context += "} threads=" + std::to_string(threads);
      ExpectCellsEqual(direct.cells, rolled.cells, context);
    }
  }
}

TEST(RollupTest, RollupFromIntermediateGroupingStaysExact) {
  // Lattice step: base (a,b,c) -> (a,b) -> (b) must equal a direct
  // group-by on (b); roll-ups compose because each is exact.
  const Table t = MakeRandomTable(/*seed=*/23, /*num_rows=*/8000,
                                  /*num_estabs=*/60);
  const GroupedCounts base =
      GroupCountByEstablishment(t, {"attr_a", "attr_b", "attr_c"}, "estab")
          .value();
  const GroupedCounts mid =
      RollupGroupedCounts(
          base, GroupKeyCodec::Create(t.schema(), {"attr_a", "attr_b"}).value(),
          2)
          .value();
  const GroupedCounts leaf =
      RollupGroupedCounts(
          mid, GroupKeyCodec::Create(t.schema(), {"attr_b"}).value(), 3)
          .value();
  const GroupedCounts direct =
      GroupCountByEstablishment(t, {"attr_b"}, "estab").value();
  ExpectCellsEqual(direct.cells, leaf.cells, "two-step lattice");
}

TEST(RollupTest, RejectsColumnsOutsideTheBaseGrouping) {
  const Table t = MakeRandomTable(/*seed=*/5, /*num_rows=*/100,
                                  /*num_estabs=*/5);
  const GroupedCounts base =
      GroupCountByEstablishment(t, {"attr_a", "attr_b"}, "estab").value();
  auto result = RollupGroupedCounts(
      base, GroupKeyCodec::Create(t.schema(), {"attr_c"}).value(), 1);
  EXPECT_FALSE(result.ok());
}

TEST(GroupByCacheTest, ServesExactHitsThenRollupsAndScansOnlyOnce) {
  const Table t = MakeRandomTable(/*seed=*/41, /*num_rows=*/10000,
                                  /*num_estabs=*/80);
  GroupByCache cache;
  GroupByCache::Outcome outcome;

  auto base = cache.GetOrCompute(t, {"attr_a", "attr_b", "attr_c"}, "estab",
                                 {}, &outcome);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kScan);

  // Same columns again: the identical shared grouping, no recompute.
  auto again = cache.GetOrCompute(t, {"attr_a", "attr_b", "attr_c"}, "estab",
                                  {}, &outcome);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kExactHit);
  EXPECT_EQ(base.value().get(), again.value().get());

  // A subset: derived from the cached superset, and bit-identical to a
  // direct scan.
  std::vector<std::string> source;
  auto subset = cache.GetOrCompute(t, {"attr_b", "attr_a"}, "estab", {},
                                   &outcome, &source);
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kRollup);
  EXPECT_EQ(source,
            (std::vector<std::string>{"attr_a", "attr_b", "attr_c"}));
  const GroupedCounts direct =
      GroupCountByEstablishment(t, {"attr_b", "attr_a"}, "estab").value();
  ExpectCellsEqual(direct.cells, subset.value()->cells,
                   "cache rollup");
}

TEST(GroupByCacheTest, CostModelPrefersScanOverPathologicallyWideRollup) {
  // A table whose establishment id is unique per row: EVERY grouping holds
  // one item per row, the worst case for roll-ups. The cost model must
  // then prefer a fresh scan (2 units/row) over a non-prefix roll-up from
  // the cached wide grouping (4 units/item = 2x a scan), while the prefix
  // merge (1 unit/item) stays cheaper than scanning — the accounting fix
  // over the old fewest-items rule, which would always have picked the
  // wide grouping.
  const size_t rows = 4000;
  Rng rng(99);
  auto dict_a = Dictionary::Create(MakeValues(5, "a")).value();
  auto dict_b = Dictionary::Create(MakeValues(3, "b")).value();
  auto dict_c = Dictionary::Create(MakeValues(4, "c")).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"attr_a", DataType::kCategory, dict_a},
                                {"attr_b", DataType::kCategory, dict_b},
                                {"attr_c", DataType::kCategory, dict_c}})
                    .value();
  std::vector<int64_t> estabs(rows);
  std::vector<uint32_t> as(rows), bs(rows), cs(rows);
  for (size_t i = 0; i < rows; ++i) {
    estabs[i] = static_cast<int64_t>(i);
    as[i] = static_cast<uint32_t>(rng.UniformInt(0, 4));
    bs[i] = static_cast<uint32_t>(rng.UniformInt(0, 2));
    cs[i] = static_cast<uint32_t>(rng.UniformInt(0, 3));
  }
  const Table t =
      Table::Create(schema,
                    {Column::OfInt64(estabs), Column::OfCategory(as),
                     Column::OfCategory(bs), Column::OfCategory(cs)})
          .value();

  GroupByCache cache;
  GroupByCache::Outcome outcome;
  ASSERT_TRUE(cache.GetOrCompute(t, {"attr_a", "attr_b", "attr_c"}, "estab",
                                 {}, &outcome)
                  .ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kScan);

  // Non-prefix subset: the only covering entry is as wide as the table, so
  // the model re-scans — and the result is still exactly the direct
  // grouping.
  auto non_prefix = cache.GetOrCompute(t, {"attr_b"}, "estab", {}, &outcome);
  ASSERT_TRUE(non_prefix.ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kScan);
  ExpectCellsEqual(
      GroupCountByEstablishment(t, {"attr_b"}, "estab").value().cells,
      non_prefix.value()->cells, "cost-model scan");

  // Prefix subset: one merge pass over the same wide entry is modeled
  // cheaper than the scan, and must be chosen.
  std::vector<std::string> source;
  auto prefix = cache.GetOrCompute(t, {"attr_a", "attr_b"}, "estab", {},
                                   &outcome, &source);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kPrefixMerge);
  EXPECT_EQ(source, (std::vector<std::string>{"attr_a", "attr_b", "attr_c"}));
  ExpectCellsEqual(
      GroupCountByEstablishment(t, {"attr_a", "attr_b"}, "estab")
          .value()
          .cells,
      prefix.value()->cells, "cost-model prefix merge");

  // The scan-served subset is cached like any other entry.
  ASSERT_TRUE(cache.GetOrCompute(t, {"attr_b"}, "estab", {}, &outcome).ok());
  EXPECT_EQ(outcome, GroupByCache::Outcome::kExactHit);
}

TEST(GroupByCacheTest, RejectsADifferentTableOrEstablishmentColumn) {
  const Table t1 = MakeRandomTable(/*seed=*/1, /*num_rows=*/500,
                                   /*num_estabs=*/10);
  const Table t2 = MakeRandomTable(/*seed=*/2, /*num_rows=*/500,
                                   /*num_estabs=*/10);
  GroupByCache cache;
  ASSERT_TRUE(cache.GetOrCompute(t1, {"attr_a"}, "estab").ok());
  EXPECT_FALSE(cache.GetOrCompute(t2, {"attr_a"}, "estab").ok());
  EXPECT_FALSE(cache.GetOrCompute(t1, {"attr_a"}, "attr_a").ok());
}

}  // namespace
}  // namespace eep::table
