#include "table/table.h"

#include <gtest/gtest.h>

namespace eep::table {
namespace {

Schema TwoColumnSchema() {
  return Schema::Create({{"id", DataType::kInt64, nullptr},
                         {"cat", DataType::kCategory,
                          Dictionary::Create({"x", "y", "z"}).value()}})
      .value();
}

TEST(TableTest, CreateValidatesShapes) {
  auto schema = TwoColumnSchema();
  // Length mismatch.
  EXPECT_FALSE(Table::Create(schema, {Column::OfInt64({1, 2}),
                                      Column::OfCategory({1})})
                   .ok());
  // Type mismatch.
  EXPECT_FALSE(Table::Create(schema, {Column::OfCategory({1}),
                                      Column::OfCategory({1})})
                   .ok());
  // Count mismatch.
  EXPECT_FALSE(Table::Create(schema, {Column::OfInt64({1})}).ok());
  // Valid.
  auto t = Table::Create(schema,
                         {Column::OfInt64({1, 2}), Column::OfCategory({1, 2})});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().num_rows(), 2u);
  EXPECT_EQ(t.value().num_columns(), 2u);
}

TEST(TableTest, CreateValidatesCategoryCodes) {
  auto dict = Dictionary::Create({"a", "b"}).value();
  auto schema =
      Schema::Create({{"cat", DataType::kCategory, dict}}).value();
  EXPECT_FALSE(Table::Create(schema, {Column::OfCategory({0, 5})}).ok());
  EXPECT_TRUE(Table::Create(schema, {Column::OfCategory({0, 1})}).ok());
}

TEST(TableTest, ColumnByName) {
  auto t = Table::Create(TwoColumnSchema(), {Column::OfInt64({7}),
                                             Column::OfCategory({2})})
               .value();
  EXPECT_EQ((*t.ColumnByName("id").value()->AsInt64().value())[0], 7);
  EXPECT_EQ(t.ColumnByName("nope").status().code(), StatusCode::kNotFound);
}

TEST(TableTest, HashJoinInner) {
  auto left = Table::Create(
                  Schema::Create({{"k", DataType::kInt64, nullptr},
                                  {"lv", DataType::kCategory,
                                   Dictionary::Create({"a", "b", "c", "d"})
                                       .value()}})
                      .value(),
                  {Column::OfInt64({1, 2, 3, 2}),
                   Column::OfCategory({0, 1, 2, 3})})
                  .value();
  auto right = Table::Create(
                   Schema::Create({{"k", DataType::kInt64, nullptr},
                                   {"rv", DataType::kInt64, nullptr}})
                       .value(),
                   {Column::OfInt64({2, 3}), Column::OfInt64({20, 30})})
                   .value();
  auto joined = Table::HashJoin(left, "k", right, "k").value();
  // Rows with k=1 dropped; duplicate left keys both matched.
  EXPECT_EQ(joined.num_rows(), 3u);
  EXPECT_EQ(joined.num_columns(), 3u);  // k, lv, rv
  const auto& ks = joined.ColumnByName("k").value()->int64s();
  const auto& rvs = joined.ColumnByName("rv").value()->int64s();
  for (size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(rvs[i], ks[i] * 10);
  }
}

TEST(TableTest, HashJoinRejectsDuplicateRightKeys) {
  auto mk = [](std::vector<int64_t> keys) {
    return Table::Create(
               Schema::Create({{"k", DataType::kInt64, nullptr}}).value(),
               {Column::OfInt64(std::move(keys))})
        .value();
  };
  EXPECT_FALSE(Table::HashJoin(mk({1}), "k", mk({2, 2}), "k").ok());
}

TEST(TableTest, HashJoinRejectsDuplicateOutputColumns) {
  auto schema = Schema::Create({{"k", DataType::kInt64, nullptr},
                                {"v", DataType::kInt64, nullptr}})
                    .value();
  auto left = Table::Create(schema, {Column::OfInt64({1}),
                                     Column::OfInt64({10})})
                  .value();
  auto right = Table::Create(schema, {Column::OfInt64({1}),
                                      Column::OfInt64({99})})
                   .value();
  // Both sides carry a non-key column "v".
  EXPECT_FALSE(Table::HashJoin(left, "k", right, "k").ok());
}

}  // namespace
}  // namespace eep::table
