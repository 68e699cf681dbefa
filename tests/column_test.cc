#include "table/column.h"

#include <gtest/gtest.h>

#include <optional>

#include "table/table.h"

namespace eep::table {
namespace {

TEST(ColumnTest, TypedConstructionAndAccess) {
  Column c1 = Column::OfInt64({1, 2, 3});
  EXPECT_EQ(c1.type(), DataType::kInt64);
  EXPECT_EQ(c1.size(), 3u);
  EXPECT_EQ(c1.int64s()[1], 2);

  Column c2 = Column::OfCategory({0, 1, 0});
  EXPECT_EQ(c2.type(), DataType::kCategory);
  EXPECT_EQ(c2.code(1), 1u);
}

TEST(ColumnTest, CheckedAccessors) {
  Column c = Column::OfInt64({5});
  EXPECT_TRUE(c.AsInt64().ok());
  EXPECT_FALSE(Column::OfCategory({5}).AsInt64().ok());
  EXPECT_EQ((*c.AsInt64().value())[0], 5);
}

TEST(ColumnTest, FilterCopy) {
  Column c = Column::OfInt64({10, 20, 30, 40});
  Column filtered = c.FilterCopy({true, false, true, false});
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered.int64s()[0], 10);
  EXPECT_EQ(filtered.int64s()[1], 30);
}

TEST(ColumnTest, FilterCopyPreservesType) {
  Column c = Column::OfCategory({4, 7});
  Column filtered = c.FilterCopy({false, true});
  EXPECT_EQ(filtered.type(), DataType::kCategory);
  EXPECT_EQ(filtered.code(0), 7u);
}

TEST(ColumnTest, TakeCopyGathersWithRepeats) {
  Column c = Column::OfInt64({1, 2, 3});
  Column taken = c.TakeCopy({2, 0, 2, 2});
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken.int64s()[0], 3);
  EXPECT_EQ(taken.int64s()[1], 1);
  EXPECT_EQ(taken.int64s()[3], 3);
}

TEST(ColumnTest, EmptyColumn) {
  Column c = Column::OfCategory({});
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.FilterCopy({}).size(), 0u);
  EXPECT_EQ(c.TakeCopy({}).size(), 0u);
}

/// The codes of `column`, widened to uint32.
std::vector<uint32_t> Codes(const Column& column) {
  return column.VisitCodes([](const auto& codes) {
    return std::vector<uint32_t>(codes.begin(), codes.end());
  });
}

/// OfCategory over {0, largest, 1} handed over `Code`-wide.
template <typename Code>
Column CodesOfWidth(uint32_t largest) {
  return Column::OfCategory(
      std::vector<Code>{0, static_cast<Code>(largest), 1});
}

TEST(ColumnTest, CodesLandAtTheNarrowestWidthFromEveryInputWidth) {
  struct Case {
    uint32_t largest;
    size_t width;
  };
  for (const Case& c : {Case{255, 1}, Case{256, 2}, Case{65535, 2},
                        Case{65536, 4}, Case{0xFFFFFFFFu, 4}}) {
    SCOPED_TRACE(c.largest);
    const std::vector<uint32_t> expected = {0, c.largest, 1};
    std::vector<Column> columns = {CodesOfWidth<uint32_t>(c.largest),
                                   Column::OfCategory({0, c.largest, 1})};
    if (c.largest <= 0xFFFF) {
      columns.push_back(CodesOfWidth<uint16_t>(c.largest));
    }
    if (c.largest <= 0xFF) columns.push_back(CodesOfWidth<uint8_t>(c.largest));
    for (const Column& column : columns) {
      EXPECT_EQ(column.type(), DataType::kCategory);
      EXPECT_EQ(column.code_width(), c.width);
      EXPECT_EQ(Codes(column), expected);
      EXPECT_EQ(column.code(1), c.largest);
    }
  }
  EXPECT_EQ(Column::OfCategory({}).code_width(), 1u);
}

TEST(ColumnTest, CopiesKeepValuesAndWidth) {
  // Each source's widest code is one the copies drop, so a copy that
  // re-derived its width would narrow.
  for (const uint32_t largest : {255u, 256u, 65536u}) {
    SCOPED_TRACE(largest);
    const Column c = Column::OfCategory({largest, 3, 7, 2});
    const size_t width = c.code_width();
    const Column filtered = c.FilterCopy({false, true, true, false});
    EXPECT_EQ(Codes(filtered), (std::vector<uint32_t>{3, 7}));
    EXPECT_EQ(filtered.code_width(), width);
    const Column taken = c.TakeCopy({2, 1, 2});
    EXPECT_EQ(Codes(taken), (std::vector<uint32_t>{7, 3, 7}));
    EXPECT_EQ(taken.code_width(), width);
  }
}

TEST(ColumnTest, CopySharesValuesAndOutlivesItsTable) {
  std::optional<Column> copy;
  {
    const Table table =
        Table::Create(Schema::Create({{"v", DataType::kInt64, nullptr}})
                          .value(),
                      {Column::OfInt64({4, 5, 6})})
            .value();
    copy = table.column(0);
    EXPECT_EQ(copy->int64s().data(), table.column(0).int64s().data());
  }
  // Under AddressSanitizer a view of freed values fails here.
  EXPECT_EQ(copy->int64s(), (std::vector<int64_t>{4, 5, 6}));
}

}  // namespace
}  // namespace eep::table
