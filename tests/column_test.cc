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
  EXPECT_EQ(c2.codes()[1], 1u);
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
  EXPECT_EQ(filtered.codes()[0], 7u);
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
