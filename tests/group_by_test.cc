#include "table/group_by.h"

#include <gtest/gtest.h>

#include "table/partitioned_group_by.h"

namespace eep::table {
namespace {

// Builds a toy "jobs" table: estab id plus two categorical attributes.
Table ToyTable() {
  auto color = Dictionary::Create({"red", "green"}).value();
  auto size = Dictionary::Create({"s", "m", "l"}).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"color", DataType::kCategory, color},
                                {"size", DataType::kCategory, size}})
                    .value();
  // (estab, color, size)
  return Table::Create(
             schema,
             {Column::OfInt64({1, 1, 1, 2, 2, 3}),
              Column::OfCategory({0, 0, 1, 0, 0, 1}),
              Column::OfCategory({0, 0, 2, 0, 1, 2})})
      .value();
}

TEST(GroupKeyCodecTest, PackUnpackRoundTrip) {
  Table t = ToyTable();
  auto codec = GroupKeyCodec::Create(t.schema(), {"color", "size"}).value();
  EXPECT_EQ(codec.DomainSize(), 6u);
  for (uint32_t c = 0; c < 2; ++c) {
    for (uint32_t s = 0; s < 3; ++s) {
      const uint64_t key = codec.Pack({c, s});
      const auto codes = codec.Unpack(key);
      EXPECT_EQ(codes[0], c);
      EXPECT_EQ(codes[1], s);
    }
  }
}

TEST(GroupKeyCodecTest, PackingOrderIsOuterFirst) {
  Table t = ToyTable();
  auto codec = GroupKeyCodec::Create(t.schema(), {"color", "size"}).value();
  // key = color * |size| + size.
  EXPECT_EQ(codec.Pack({1, 2}), 5u);
  EXPECT_EQ(codec.Pack({0, 2}), 2u);
}

TEST(GroupKeyCodecTest, Describe) {
  Table t = ToyTable();
  auto codec = GroupKeyCodec::Create(t.schema(), {"color", "size"}).value();
  EXPECT_EQ(codec.Describe(t.schema(), codec.Pack({1, 0})).value(),
            "color=green,size=s");
  EXPECT_FALSE(codec.Describe(t.schema(), 99).ok());
}

TEST(GroupKeyCodecTest, CreateValidation) {
  Table t = ToyTable();
  EXPECT_FALSE(GroupKeyCodec::Create(t.schema(), {}).ok());
  EXPECT_FALSE(GroupKeyCodec::Create(t.schema(), {"estab"}).ok());
  EXPECT_FALSE(GroupKeyCodec::Create(t.schema(), {"missing"}).ok());
}

TEST(GroupCountByEstablishmentTest, CountsAndContributions) {
  Table t = ToyTable();
  auto grouped =
      GroupCountByEstablishment(t, {"color", "size"}, "estab").value();
  // Non-empty cells: (red,s): estab1 x2 + estab2 x1 = 3; (red,m): estab2 x1;
  // (green,l): estab1 x1 + estab3 x1 = 2.
  EXPECT_EQ(grouped.cells.size(), 3u);
  const auto& codec = grouped.codec;

  const GroupedCell* red_s = grouped.Find(codec.Pack({0, 0}));
  ASSERT_NE(red_s, nullptr);
  EXPECT_EQ(red_s->count, 3);
  EXPECT_EQ(red_s->NumEstablishments(), 2);
  EXPECT_EQ(red_s->MaxEstabContribution(), 2);
  // Contributions sorted by estab id.
  EXPECT_EQ(red_s->contributions[0].estab_id, 1);
  EXPECT_EQ(red_s->contributions[0].count, 2);
  EXPECT_EQ(red_s->contributions[1].estab_id, 2);

  const GroupedCell* green_l = grouped.Find(codec.Pack({1, 2}));
  ASSERT_NE(green_l, nullptr);
  EXPECT_EQ(green_l->count, 2);
  EXPECT_EQ(green_l->MaxEstabContribution(), 1);

  EXPECT_EQ(grouped.Find(codec.Pack({1, 0})), nullptr);  // empty cell
}

TEST(GroupCountByEstablishmentTest, CellsSortedByKey) {
  Table t = ToyTable();
  auto grouped =
      GroupCountByEstablishment(t, {"color", "size"}, "estab").value();
  for (size_t i = 1; i < grouped.cells.size(); ++i) {
    EXPECT_LT(grouped.cells[i - 1].key, grouped.cells[i].key);
  }
}

TEST(GroupCountByEstablishmentTest, SingleColumnGrouping) {
  Table t = ToyTable();
  auto grouped = GroupCountByEstablishment(t, {"color"}, "estab").value();
  EXPECT_EQ(grouped.Find(0)->count, 4);  // red
  EXPECT_EQ(grouped.Find(1)->count, 2);  // green
}

bool SameGrouped(const GroupedCounts& a, const GroupedCounts& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const GroupedCell& x = a.cells[i];
    const GroupedCell& y = b.cells[i];
    if (x.key != y.key || x.count != y.count) return false;
    if (x.contributions.size() != y.contributions.size()) return false;
    for (size_t c = 0; c < x.contributions.size(); ++c) {
      if (x.contributions[c].estab_id != y.contributions[c].estab_id ||
          x.contributions[c].count != y.contributions[c].count) {
        return false;
      }
    }
  }
  return true;
}

TEST(GroupCountByEstablishmentTest, ThreadCountInvariant) {
  Table t = ToyTable();
  auto base =
      GroupCountByEstablishment(t, {"color", "size"}, "estab").value();
  for (int threads : {2, 4, 8}) {
    auto parallel = GroupCountByEstablishment(t, {"color", "size"}, "estab",
                                              GroupByOptions{threads})
                        .value();
    EXPECT_TRUE(SameGrouped(base, parallel)) << "threads=" << threads;
  }
}

TEST(GroupCountByEstablishmentTest, NegativeEstabIdsUsePairFallback) {
  // Negative establishment ids cannot share a packed radix-sort word with
  // the key, forcing the comparison-sort path; results must be identical
  // in shape: contributions sorted ascending, counts exact.
  auto color = Dictionary::Create({"red", "green"}).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"color", DataType::kCategory, color}})
                    .value();
  Table t = Table::Create(schema, {Column::OfInt64({-5, -5, 3, -5, 3}),
                                   Column::OfCategory({0, 0, 0, 1, 0})})
                .value();
  auto grouped = GroupCountByEstablishment(t, {"color"}, "estab").value();
  ASSERT_EQ(grouped.cells.size(), 2u);
  const GroupedCell* red = grouped.Find(0);
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->count, 4);
  ASSERT_EQ(red->contributions.size(), 2u);
  EXPECT_EQ(red->contributions[0].estab_id, -5);
  EXPECT_EQ(red->contributions[0].count, 2);
  EXPECT_EQ(red->contributions[1].estab_id, 3);
  EXPECT_EQ(red->contributions[1].count, 2);
  EXPECT_EQ(grouped.Find(1)->count, 1);
}

TEST(GroupCountByEstablishmentTest, NegativeEstabIdsInEstabOrderUseDensePath) {
  // The rows of NegativeEstabIdsUsePairFallback in establishment order take
  // the dense path, which orders ids as signed integers; the grouping must
  // equal the pair fallback's on the unordered rows.
  auto color = Dictionary::Create({"red", "green"}).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"color", DataType::kCategory, color}})
                    .value();
  const std::vector<int64_t> ordered_ids = {-5, -5, -5, 3, 3};
  const std::vector<int64_t> unordered_ids = {-5, -5, 3, -5, 3};
  Table ordered = Table::Create(schema, {Column::OfInt64(ordered_ids),
                                         Column::OfCategory({0, 0, 1, 0, 0})})
                      .value();
  Table unordered =
      Table::Create(schema, {Column::OfInt64(unordered_ids),
                             Column::OfCategory({0, 0, 0, 1, 0})})
          .value();
  EXPECT_EQ(ChooseScanPath(ordered_ids, 2, 1), ScanPath::kDense);
  EXPECT_EQ(ChooseScanPath(unordered_ids, 2, 1), ScanPath::kRadix);
  auto dense = GroupCountByEstablishment(ordered, {"color"}, "estab").value();
  auto fallback =
      GroupCountByEstablishment(unordered, {"color"}, "estab").value();
  EXPECT_TRUE(SameGrouped(dense, fallback));
  ASSERT_EQ(dense.cells.size(), 2u);
  ASSERT_EQ(dense.cells[0].contributions.size(), 2u);
  EXPECT_EQ(dense.cells[0].contributions[0].estab_id, -5);
  EXPECT_EQ(dense.cells[0].contributions[1].estab_id, 3);
  for (int threads : {2, 4, 8}) {
    auto parallel = GroupCountByEstablishment(ordered, {"color"}, "estab",
                                              GroupByOptions{threads})
                        .value();
    EXPECT_TRUE(SameGrouped(dense, parallel)) << "threads=" << threads;
  }
}

TEST(GroupCountByEstablishmentTest, DomainWiderThan63Bits) {
  // Eight 255-value columns give a 255^8 ~ 1.78e19 > 2^63 key domain; the
  // partition planner must not shift by >= 64 bits (UB) when targeting a
  // single partition for a tiny input.
  std::vector<std::string> values;
  for (int i = 0; i < 255; ++i) values.push_back("v" + std::to_string(i));
  auto dict = Dictionary::Create(values).value();
  std::vector<Field> fields = {{"estab", DataType::kInt64, nullptr}};
  for (int c = 0; c < 8; ++c) {
    fields.push_back({"c" + std::to_string(c), DataType::kCategory, dict});
  }
  auto schema = Schema::Create(fields).value();
  std::vector<Column> columns = {Column::OfInt64({1, 2, 1})};
  for (int c = 0; c < 8; ++c) {
    columns.push_back(Column::OfCategory({254, 0, 254}));
  }
  Table t = Table::Create(schema, std::move(columns)).value();
  std::vector<std::string> group_columns;
  for (int c = 0; c < 8; ++c) group_columns.push_back("c" + std::to_string(c));
  auto grouped =
      GroupCountByEstablishment(t, group_columns, "estab").value();
  ASSERT_EQ(grouped.cells.size(), 2u);
  EXPECT_EQ(grouped.cells[0].key, 0u);
  EXPECT_EQ(grouped.cells[0].count, 1);
  EXPECT_EQ(grouped.cells[1].key, grouped.codec.Pack(std::vector<uint32_t>(
                                      8, 254)));
  EXPECT_EQ(grouped.cells[1].count, 2);
}

TEST(GroupCountByEstablishmentTest, EmptyTable) {
  auto color = Dictionary::Create({"red", "green"}).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"color", DataType::kCategory, color}})
                    .value();
  Table t = Table::Create(schema, {Column::OfInt64({}),
                                   Column::OfCategory({})})
                .value();
  auto grouped = GroupCountByEstablishment(t, {"color"}, "estab").value();
  EXPECT_TRUE(grouped.cells.empty());
}

TEST(GroupCountByEstablishmentTest, TotalMatchesRowCount) {
  Table t = ToyTable();
  auto grouped =
      GroupCountByEstablishment(t, {"color", "size"}, "estab").value();
  int64_t total = 0;
  for (const auto& cell : grouped.cells) {
    total += cell.count;
    int64_t contrib_total = 0;
    for (const auto& c : cell.contributions) contrib_total += c.count;
    EXPECT_EQ(contrib_total, cell.count);
  }
  EXPECT_EQ(total, static_cast<int64_t>(t.num_rows()));
}

}  // namespace
}  // namespace eep::table
