// Cross-path check on generated LODES data: GroupCountByEstablishment must
// equal the radix path, AggregateByKeyAndEstab(MaterializeGroupKeys(...)),
// bit for bit. The generator emits jobs establishment by establishment, so
// the original row order takes the dense path; a shuffled copy of the same
// rows misses the dense gate and takes the radix path.
#include <gtest/gtest.h>

#include <string>
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
        const std::vector<GroupedCell> radix = AggregateByKeyAndEstab(
            MaterializeGroupKeys(*table, codec, threads), ids, domain,
            threads);
        ExpectSameCells(radix, scan.cells, context);
        if (reference.empty()) reference = radix;
        ExpectSameCells(reference, scan.cells, context + " vs reference");
      }
    }
  }
}

}  // namespace
}  // namespace eep::table
