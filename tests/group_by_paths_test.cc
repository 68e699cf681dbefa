// Cross-path check on generated LODES data: GroupCountByEstablishment must
// equal the radix path, AggregateByKeyAndEstab, bit for bit. The generator
// emits jobs establishment by establishment, so the original row order
// takes the dense path; a shuffled copy of the same rows misses the dense
// gate and takes the radix path. A second case checks both paths over
// 1-, 2- and 4-byte group columns against a reference counted from uint32
// codes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "table/partitioned_group_by.h"

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

void ExpectSameCells(const std::vector<GroupedCell>& expected,
                     const std::vector<GroupedCell>& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const GroupedCell& a = expected[i];
    const GroupedCell& b = actual[i];
    ASSERT_EQ(a.key, b.key) << context << " cell " << i;
    ASSERT_EQ(a.count, b.count) << context << " cell " << i;
    ASSERT_EQ(a.contributions.size(), b.contributions.size())
        << context << " cell " << i;
    for (size_t c = 0; c < a.contributions.size(); ++c) {
      ASSERT_EQ(a.contributions[c].estab_id, b.contributions[c].estab_id)
          << context << " cell " << i;
      ASSERT_EQ(a.contributions[c].count, b.contributions[c].count)
          << context << " cell " << i;
    }
  }
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
    std::vector<GroupedCell> reference;
    for (const Table* table : {&original, &shuffled}) {
      const bool is_original = table == &original;
      const std::vector<int64_t>& ids =
          *table->ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
      EXPECT_EQ(ChooseScanPath(ids, domain, 1),
                is_original ? ScanPath::kDense : ScanPath::kRadix);
      for (int threads : {1, 2, 4, 8}) {
        const std::string context =
            codec.columns().front() + ".." + codec.columns().back() +
            (is_original ? " original" : " shuffled") +
            " threads=" + std::to_string(threads);
        const GroupedCounts scan =
            GroupCountByEstablishment(*table, columns, lodes::kColEstabId,
                                      GroupByOptions{threads})
                .value();
        const std::vector<GroupedCell> radix =
            AggregateByKeyAndEstab(*table, codec, ids, threads);
        ExpectSameCells(radix, scan.cells, context);
        if (reference.empty()) reference = radix;
        ExpectSameCells(reference, scan.cells, context + " vs reference");
      }
    }
  }
}

/// Cells counted row by row from uint32 codes through GroupKeyCodec::Pack.
std::vector<GroupedCell> ReferenceCells(
    const GroupKeyCodec& codec,
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
  std::vector<GroupedCell> cells;
  for (const auto& [key, by_estab] : counts) {
    GroupedCell cell;
    cell.key = key;
    for (const auto& [estab, count] : by_estab) {
      cell.contributions.push_back({estab, count});
      cell.count += count;
    }
    cells.push_back(std::move(cell));
  }
  return cells;
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

  // {a, b} and {a, c} take the dense path at one thread ({a, c} only
  // just: 131074 keys over 140000 rows); {c, b} and {c, b, a} are too
  // wide for it.
  const std::vector<std::pair<std::vector<std::string>, ScanPath>> sets = {
      {{"a", "b"}, ScanPath::kDense},
      {{"a", "c"}, ScanPath::kDense},
      {{"c", "b"}, ScanPath::kRadix},
      {{"c", "b", "a"}, ScanPath::kRadix}};
  for (const auto& [group, path] : sets) {
    const GroupKeyCodec codec =
        GroupKeyCodec::Create(ordered.schema(), group).value();
    EXPECT_EQ(ChooseScanPath(estab_ids, codec.DomainSize(), 1), path);
    const std::vector<GroupedCell> expected =
        ReferenceCells(codec, codes, estab_ids);
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
                            .value()
                            .cells,
                        context + " scan");
        ExpectSameCells(expected,
                        AggregateByKeyAndEstab(*table, codec, ids, threads),
                        context + " radix");
      }
    }
  }
}

}  // namespace
}  // namespace eep::table
