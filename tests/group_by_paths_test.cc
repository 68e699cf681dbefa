// Cross-path check on generated LODES data: GroupCountByEstablishment and
// the dense path, GroupEstabOrdered, must equal the radix path,
// AggregateByKeyAndEstab, bit for bit. The generator emits jobs
// establishment by establishment, so the dense path accepts the original
// row order; it refuses a shuffled copy of the same rows, which takes the
// radix path. Further cases check both paths over 1-, 2- and 4-byte group
// columns against a reference counted from uint32 codes, that every scan
// and roll-up lays its cells out as ranges tiling one contribution array,
// and that an ordered extract with one decreasing id falls back from the
// dense path to the radix path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "grouping_checks.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "table/partitioned_group_by.h"
#include "table/rollup.h"

namespace eep::table {
namespace {

lodes::LodesDataset MakeDataset() {
  lodes::GeneratorConfig config;
  config.seed = 19;
  config.target_jobs = 200000;
  config.num_places = 80;
  auto data = lodes::SyntheticLodesGenerator(config).Generate();
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// The same rows in a seeded random order.
Table Shuffled(const Table& table) {
  Rng rng(23);
  const std::vector<uint32_t> order =
      rng.Permutation(static_cast<uint32_t>(table.num_rows()));
  std::vector<Column> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c).TakeCopy(order));
  }
  return Table::Create(table.schema(), std::move(columns)).value();
}

TEST(GroupByPathsTest, DenseScanMatchesRadixPathOnGeneratedExtract) {
  const lodes::LodesDataset data = MakeDataset();
  const Table& original = data.worker_full();
  const Table shuffled = Shuffled(original);
  const std::vector<std::vector<std::string>> column_sets = {
      lodes::WorkloadSpec::PaperTabulations().FusedSpec().AllColumns(),
      lodes::MarginalSpec::EstablishmentMarginal().AllColumns()};
  for (const std::vector<std::string>& columns : column_sets) {
    const GroupKeyCodec codec =
        GroupKeyCodec::Create(original.schema(), columns).value();
    const uint64_t domain = codec.DomainSize();
    std::optional<GroupedCounts> reference;
    for (const Table* table : {&original, &shuffled}) {
      const bool is_original = table == &original;
      const std::vector<int64_t>& ids =
          *table->ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
      for (int threads : {1, 2, 4, 8}) {
        const std::string context =
            codec.columns().front() + ".." + codec.columns().back() +
            (is_original ? " original" : " shuffled") +
            " threads=" + std::to_string(threads);
        const GroupedCounts radix =
            AggregateByKeyAndEstab(*table, codec, ids, threads);
        // The dense bound, domain <= max(rows, 2^16) / workers, holds for
        // both column sets at 1 thread.
        const bool fits =
            domain <= std::max<uint64_t>(ids.size(), uint64_t{1} << 16) /
                          static_cast<uint64_t>(threads);
        ASSERT_TRUE(fits || threads > 1) << context;
        const std::optional<GroupedCounts> dense =
            GroupEstabOrdered(*table, codec, ids, threads);
        ASSERT_EQ(dense.has_value(), is_original && fits) << context;
        if (dense) ExpectSameCells(radix, *dense, context + " dense");
        ExpectSameCells(radix,
                        GroupCountByEstablishment(*table, columns,
                                                  lodes::kColEstabId,
                                                  GroupByOptions{threads})
                            .value(),
                        context + " scan");
        if (!reference) reference = radix;
        ExpectSameCells(*reference, radix, context + " vs reference");
      }
    }
  }
}

TEST(GroupByPathsTest, CellsTileOneContributionArrayOnEveryPath) {
  const lodes::LodesDataset data = MakeDataset();
  const Table& original = data.worker_full();
  const Table shuffled = Shuffled(original);
  const std::vector<std::string> base =
      lodes::MarginalSpec::WorkplaceBySexEducation().AllColumns();
  // The release's prefix roll-up to the establishment marginal, and a
  // non-prefix one that sorts the base cells.
  const std::vector<std::vector<std::string>> rollups = {
      lodes::MarginalSpec::EstablishmentMarginal().AllColumns(),
      lodes::MarginalSpec::IndustryBySexEducation().AllColumns()};
  ASSERT_TRUE(IsColumnPrefix(base, rollups[0]));
  ASSERT_FALSE(IsColumnPrefix(base, rollups[1]));
  const GroupKeyCodec codec =
      GroupKeyCodec::Create(original.schema(), base).value();
  const std::vector<int64_t>& original_ids =
      *original.ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
  const std::vector<int64_t>& shuffled_ids =
      *shuffled.ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
  for (int threads : {1, 2, 4}) {
    const std::string suffix = " threads=" + std::to_string(threads);
    std::optional<GroupedCounts> dense =
        GroupEstabOrdered(original, codec, original_ids, threads);
    ASSERT_TRUE(dense.has_value()) << suffix;
    ASSERT_FALSE(GroupEstabOrdered(shuffled, codec, shuffled_ids, threads)
                     .has_value())
        << suffix;
    const std::vector<std::pair<std::string, GroupedCounts>> scans = {
        {"dense", std::move(*dense)},
        {"radix",
         AggregateByKeyAndEstab(shuffled, codec, shuffled_ids, threads)}};
    for (const auto& [path, scan] : scans) {
      const std::string context = path + suffix;
      ExpectTiledLayout(scan, context);
      for (const std::vector<std::string>& columns : rollups) {
        const GroupedCounts rolled =
            RollupGroupedCounts(
                scan,
                GroupKeyCodec::Create(original.schema(), columns).value(),
                threads)
                .value();
        ExpectTiledLayout(rolled, context + " rolled to " + columns.front() +
                                      ".." + columns.back());
      }
    }
  }
}

TEST(GroupByPathsTest, OneDecreasingIdFallsBackToTheRadixPath) {
  // The generated extract is establishment-ordered; one id at a time is
  // made smaller than the id before it: at row 1, at the last row, and at
  // rows n/4, n/2 and 3n/4, the 2- and 4-thread worker seams. The row
  // there differs from the row before it, so the seam stays exactly on
  // it. The dense path, which accepts the unchanged extract at every
  // thread count, must refuse each changed one, and the scan must equal
  // the radix path.
  const lodes::LodesDataset data = MakeDataset();
  const Table& original = data.worker_full();
  const std::vector<std::string> columns =
      lodes::MarginalSpec::WorkplaceBySexEducation().AllColumns();
  const GroupKeyCodec codec =
      GroupKeyCodec::Create(original.schema(), columns).value();
  const size_t estab_column =
      original.schema().IndexOf(lodes::kColEstabId).value();
  const std::vector<int64_t>& ordered_ids =
      *original.column(estab_column).AsInt64().value();
  for (int threads : {1, 2, 4}) {
    const std::optional<GroupedCounts> dense =
        GroupEstabOrdered(original, codec, ordered_ids, threads);
    ASSERT_TRUE(dense.has_value()) << "threads=" << threads;
    ExpectSameCells(AggregateByKeyAndEstab(original, codec, ordered_ids, 1),
                    *dense, "ordered threads=" + std::to_string(threads));
  }
  const size_t n = ordered_ids.size();
  for (const size_t row : {size_t{1}, n / 4, n / 2, 3 * n / 4, n - 1}) {
    std::vector<int64_t> ids = ordered_ids;
    ids[row] = ids[row - 1] - 1;
    std::vector<Column> table_columns;
    for (size_t c = 0; c < original.num_columns(); ++c) {
      table_columns.push_back(c == estab_column ? Column::OfInt64(ids)
                                                : original.column(c));
    }
    const Table table =
        Table::Create(original.schema(), std::move(table_columns)).value();
    const std::vector<int64_t>& table_ids =
        *table.column(estab_column).AsInt64().value();
    const GroupedCounts radix =
        AggregateByKeyAndEstab(table, codec, table_ids, 1);
    for (int threads : {1, 2, 4}) {
      const std::string context = "decrease at row " + std::to_string(row) +
                                  " threads=" + std::to_string(threads);
      EXPECT_FALSE(
          GroupEstabOrdered(table, codec, table_ids, threads).has_value())
          << context;
      ExpectSameCells(radix,
                      GroupCountByEstablishment(table, columns,
                                                lodes::kColEstabId,
                                                GroupByOptions{threads})
                          .value(),
                      context);
    }
  }
}

/// Cells counted row by row from uint32 codes through GroupKeyCodec::Pack.
GroupedCounts ReferenceCells(const GroupKeyCodec& codec,
                             const std::vector<std::vector<uint32_t>>& codes,
                             const std::vector<int64_t>& estab_ids) {
  std::map<uint64_t, std::map<int64_t, int64_t>> counts;
  std::vector<uint32_t> tuple(codec.column_indices().size());
  for (size_t row = 0; row < estab_ids.size(); ++row) {
    for (size_t c = 0; c < tuple.size(); ++c) {
      tuple[c] = codes[codec.column_indices()[c]][row];
    }
    ++counts[codec.Pack(tuple)][estab_ids[row]];
  }
  GroupedCounts grouped{codec, {}, {}};
  for (const auto& [key, by_estab] : counts) {
    GroupedCell cell;
    cell.key = key;
    cell.begin = grouped.contributions.size();
    for (const auto& [estab, count] : by_estab) {
      grouped.contributions.push_back({estab, count});
      cell.count += count;
    }
    cell.end = grouped.contributions.size();
    grouped.cells.push_back(cell);
  }
  return grouped;
}

TEST(GroupByPathsTest, MixedWidthColumnsMatchAUint32Reference) {
  // Dictionaries of 2, 300 and 65537 values whose largest codes appear,
  // so the columns are stored 1, 2 and 4 bytes wide.
  const std::vector<uint32_t> sizes = {2, 300, 65537};
  constexpr size_t kRows = 140000;
  Rng rng(31);
  std::vector<std::vector<uint32_t>> codes(sizes.size());
  std::vector<int64_t> estab_ids;
  int64_t estab = 0;
  for (size_t row = 0; row < kRows; ++row) {
    if (rng.UniformInt(0, 7) == 0) estab += rng.UniformInt(1, 3);
    estab_ids.push_back(estab);
    codes[0].push_back(static_cast<uint32_t>(rng.UniformInt(0, 1)));
    codes[1].push_back(static_cast<uint32_t>(rng.UniformInt(0, 299)));
    codes[2].push_back(static_cast<uint32_t>(
        rng.Bernoulli(0.5) ? rng.UniformInt(65530, 65536)
                           : rng.UniformInt(0, 5)));
  }
  std::vector<Field> fields = {{"estab", DataType::kInt64, nullptr}};
  std::vector<Column> columns = {Column::OfInt64(estab_ids)};
  for (size_t c = 0; c < sizes.size(); ++c) {
    std::vector<std::string> values;
    for (uint32_t v = 0; v < sizes[c]; ++v) {
      values.push_back(std::to_string(v));
    }
    fields.push_back({std::string(1, static_cast<char>('a' + c)),
                      DataType::kCategory,
                      Dictionary::Create(std::move(values)).value()});
    columns.push_back(Column::OfCategory(codes[c]));
  }
  // The reference indexes codes by schema column; column 0 is the id.
  codes.insert(codes.begin(), std::vector<uint32_t>{});
  const Table ordered =
      Table::Create(Schema::Create(std::move(fields)).value(),
                    std::move(columns))
          .value();
  for (size_t c = 1; c <= sizes.size(); ++c) {
    EXPECT_EQ(ordered.column(c).code_width(), size_t{1} << (c - 1));
  }
  const Table shuffled = Shuffled(ordered);
  const std::vector<int64_t>& shuffled_ids =
      *shuffled.column(0).AsInt64().value();
  std::vector<std::vector<uint32_t>> shuffled_codes(codes.size());
  for (size_t c = 1; c < codes.size(); ++c) {
    shuffled_codes[c] = shuffled.column(c).VisitCodes([](const auto& v) {
      return std::vector<uint32_t>(v.begin(), v.end());
    });
  }

  // The dense path accepts {a, b} and {a, c} in row order at one thread
  // ({a, c} only just: 131074 keys over 140000 rows); {c, b} and
  // {c, b, a} are too wide for it.
  const std::vector<std::pair<std::vector<std::string>, bool>> sets = {
      {{"a", "b"}, true},
      {{"a", "c"}, true},
      {{"c", "b"}, false},
      {{"c", "b", "a"}, false}};
  for (const auto& [group, dense_at_one_thread] : sets) {
    const GroupKeyCodec codec =
        GroupKeyCodec::Create(ordered.schema(), group).value();
    const GroupedCounts expected = ReferenceCells(codec, codes, estab_ids);
    ExpectSameCells(expected,
                    ReferenceCells(codec, shuffled_codes, shuffled_ids),
                    "shuffled reference");
    for (const Table* table : {&ordered, &shuffled}) {
      const std::vector<int64_t>& ids = *table->column(0).AsInt64().value();
      for (int threads : {1, 2, 4}) {
        const std::string context =
            ::testing::PrintToString(group) +
            (table == &ordered ? " ordered" : " shuffled") +
            " threads=" + std::to_string(threads);
        ExpectSameCells(expected,
                        GroupCountByEstablishment(*table, group, "estab",
                                                  GroupByOptions{threads})
                            .value(),
                        context + " scan");
        ExpectSameCells(expected,
                        AggregateByKeyAndEstab(*table, codec, ids, threads),
                        context + " radix");
        const std::optional<GroupedCounts> dense =
            GroupEstabOrdered(*table, codec, ids, threads);
        if (table == &shuffled) {
          EXPECT_FALSE(dense.has_value()) << context;
        } else if (threads == 1) {
          EXPECT_EQ(dense.has_value(), dense_at_one_thread) << context;
        }
        if (dense) ExpectSameCells(expected, *dense, context + " dense");
      }
    }
  }
}

}  // namespace
}  // namespace eep::table
