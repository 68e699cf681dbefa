#include "table/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

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

TEST(TableTest, CreateRefusesOutOfDictionaryCodesAtEveryWidth) {
  // Dictionaries whose largest codes take 1, 2 and 4 bytes.
  for (const uint32_t size : {3u, 300u, 70000u}) {
    SCOPED_TRACE(size);
    std::vector<std::string> values;
    for (uint32_t v = 0; v < size; ++v) values.push_back(std::to_string(v));
    const auto schema =
        Schema::Create({{"cat", DataType::kCategory,
                         Dictionary::Create(std::move(values)).value()}})
            .value();
    const Column last = Column::OfCategory({0, size - 1});
    const Column past = Column::OfCategory({0, size});
    ASSERT_EQ(last.code_width(), past.code_width());
    EXPECT_TRUE(Table::Create(schema, {last}).ok());
    const auto refused = Table::Create(schema, {past});
    EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(refused.status().message(),
              "category code out of range in column cat");
  }
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

// One join key set and the index path KeyIndex must take for it.
struct JoinKeySet {
  std::string name;
  std::vector<int64_t> keys;
  bool dense;
};

// Right side: the key plus an int64 and a category payload per row.
Table JoinRight(const std::vector<int64_t>& keys) {
  std::vector<int64_t> values;
  std::vector<uint32_t> codes;
  for (size_t j = 0; j < keys.size(); ++j) {
    values.push_back(static_cast<int64_t>(j) * 10 + 7);
    codes.push_back(static_cast<uint32_t>(j % 3));
  }
  return Table::Create(
             Schema::Create({{"k", DataType::kInt64, nullptr},
                             {"rv", DataType::kInt64, nullptr},
                             {"rc", DataType::kCategory,
                              Dictionary::Create({"a", "b", "c"}).value()}})
                 .value(),
             {Column::OfInt64(keys), Column::OfInt64(std::move(values)),
              Column::OfCategory(std::move(codes))})
      .value();
}

// Left side: the key plus a category payload per row.
Table JoinLeft(const std::vector<int64_t>& keys) {
  std::vector<uint32_t> codes;
  for (size_t i = 0; i < keys.size(); ++i) {
    codes.push_back(static_cast<uint32_t>(i % 4));
  }
  return Table::Create(
             Schema::Create({{"k", DataType::kInt64, nullptr},
                             {"lc", DataType::kCategory,
                              Dictionary::Create({"w", "x", "y", "z"})
                                  .value()}})
                 .value(),
             {Column::OfInt64(keys), Column::OfCategory(std::move(codes))})
      .value();
}

/// A category column's codes, widened to uint32.
std::vector<uint32_t> Codes(const Column& column) {
  return column.VisitCodes([](const auto& codes) {
    return std::vector<uint32_t>(codes.begin(), codes.end());
  });
}

/// Where a category column's codes are stored.
const void* CodeData(const Column& column) {
  return column.VisitCodes(
      [](const auto& codes) -> const void* { return codes.data(); });
}

// The join HashJoin must produce, by a nested loop in left row order.
Table NestedLoopJoin(const Table& left, const Table& right) {
  const auto& lk = left.column(0).int64s();
  const std::vector<uint32_t> lc = Codes(left.column(1));
  const auto& rk = right.column(0).int64s();
  const auto& rv = right.column(1).int64s();
  const std::vector<uint32_t> rc = Codes(right.column(2));
  std::vector<int64_t> k, v;
  std::vector<uint32_t> l, r;
  for (size_t i = 0; i < lk.size(); ++i) {
    for (size_t j = 0; j < rk.size(); ++j) {
      if (lk[i] != rk[j]) continue;
      k.push_back(lk[i]);
      l.push_back(lc[i]);
      v.push_back(rv[j]);
      r.push_back(rc[j]);
    }
  }
  std::vector<Field> fields = {left.schema().field(0), left.schema().field(1),
                               right.schema().field(1),
                               right.schema().field(2)};
  return Table::Create(Schema::Create(std::move(fields)).value(),
                       {Column::OfInt64(std::move(k)),
                        Column::OfCategory(std::move(l)),
                        Column::OfInt64(std::move(v)),
                        Column::OfCategory(std::move(r))})
      .value();
}

void ExpectSameTable(const Table& actual, const Table& expected) {
  ASSERT_EQ(actual.num_columns(), expected.num_columns());
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const Field& field = expected.schema().field(c);
    EXPECT_EQ(actual.schema().field(c).name, field.name);
    ASSERT_EQ(actual.column(c).type(), field.type) << field.name;
    if (field.type == DataType::kInt64) {
      EXPECT_EQ(actual.column(c).int64s(), expected.column(c).int64s())
          << field.name;
    } else {
      EXPECT_EQ(Codes(actual.column(c)), Codes(expected.column(c)))
          << field.name;
    }
  }
}

Status Repeated(int64_t) { return Status::InvalidArgument("repeated key"); }

class HashJoinKeySetTest : public ::testing::TestWithParam<JoinKeySet> {};

TEST_P(HashJoinKeySetTest, MatchesNestedLoopJoinOnItsIndexPath) {
  const JoinKeySet& set = GetParam();
  const std::vector<int64_t>& keys = set.keys;
  ASSERT_EQ(KeyIndex::Build(keys, Repeated).value().dense(), set.dense);

  // Keys next to each stored key that are not stored (wrapping, not
  // overflowing, at the int64 limits).
  std::vector<int64_t> absent;
  for (int64_t key : keys) {
    for (uint64_t step : {uint64_t{1}, ~uint64_t{0}}) {
      const auto near = static_cast<int64_t>(static_cast<uint64_t>(key) + step);
      if (std::find(keys.begin(), keys.end(), near) == keys.end()) {
        absent.push_back(near);
      }
    }
  }
  ASSERT_FALSE(absent.empty());

  // The right rows in reverse, so matches gather them out of order; the
  // left rows visit every key, some twice, between keys with no match.
  std::vector<int64_t> right_keys(keys.rbegin(), keys.rend());
  std::vector<int64_t> left_keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    left_keys.push_back(keys[(i * 7 + 3) % keys.size()]);
    if (i % 3 == 0) left_keys.push_back(absent[i % absent.size()]);
    if (i % 4 == 1) left_keys.push_back(keys[i]);
  }
  const Table left = JoinLeft(left_keys);
  const Table right = JoinRight(right_keys);
  const Table joined = Table::HashJoin(left, "k", right, "k").value();
  ExpectSameTable(joined, NestedLoopJoin(left, right));
  EXPECT_LT(joined.num_rows(), left.num_rows());  // unmatched rows dropped

  // Every left row matching right rows 0..n-1 in order: both sides'
  // values are shared, and the result is still the nested-loop join.
  const Table in_order = JoinLeft(right_keys);
  const Table shared = Table::HashJoin(in_order, "k", right, "k").value();
  ExpectSameTable(shared, NestedLoopJoin(in_order, right));
  EXPECT_EQ(shared.column(0).int64s().data(),
            in_order.column(0).int64s().data());
  EXPECT_EQ(shared.column(2).int64s().data(), right.column(1).int64s().data());
  EXPECT_EQ(CodeData(shared.column(3)), CodeData(right.column(2)));

  // Every right row matched once, but out of order: gathered, not shared.
  const Table permuted = JoinLeft(keys);
  ExpectSameTable(Table::HashJoin(permuted, "k", right, "k").value(),
                  NestedLoopJoin(permuted, right));

  // A repeated right key is refused with its value, on either path.
  std::vector<int64_t> repeated = right_keys;
  repeated.insert(repeated.begin() + 1, keys.back());
  ASSERT_EQ(KeyIndex::Build(repeated, Repeated).status().message(),
            "repeated key");
  const auto refused = Table::HashJoin(left, "k", JoinRight(repeated), "k");
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status().message(),
            "HashJoin: duplicate right key " + std::to_string(keys.back()));

  // Empty sides join to no rows under the full output schema.
  const Table no_left = Table::HashJoin(JoinLeft({}), "k", right, "k").value();
  ExpectSameTable(no_left, NestedLoopJoin(JoinLeft({}), right));
  EXPECT_EQ(no_left.num_columns(), 4u);
  const Table no_right =
      Table::HashJoin(left, "k", JoinRight({}), "k").value();
  ExpectSameTable(no_right, NestedLoopJoin(left, JoinRight({})));
  EXPECT_EQ(no_right.num_rows(), 0u);
}

TEST(TableTest, HashJoinKeepsCodeWidths) {
  // Left codes 2 bytes wide, right codes 4 bytes wide; an unmatched left
  // row and out-of-order right rows make the join copy both sides, and
  // the copies drop each side's widest code.
  auto dictionary = [](uint32_t size) {
    std::vector<std::string> values;
    for (uint32_t v = 0; v < size; ++v) values.push_back(std::to_string(v));
    return Dictionary::Create(std::move(values)).value();
  };
  const Table left =
      Table::Create(Schema::Create({{"k", DataType::kInt64, nullptr},
                                    {"lc", DataType::kCategory,
                                     dictionary(300)}})
                        .value(),
                    {Column::OfInt64({1, 2, 3}),
                     Column::OfCategory({299, 5, 6})})
          .value();
  const Table right =
      Table::Create(Schema::Create({{"k", DataType::kInt64, nullptr},
                                    {"rc", DataType::kCategory,
                                     dictionary(65537)}})
                        .value(),
                    {Column::OfInt64({4, 3, 2}),
                     Column::OfCategory({65536, 9, 10})})
          .value();
  ASSERT_EQ(left.column(1).code_width(), 2u);
  ASSERT_EQ(right.column(1).code_width(), 4u);
  const Table joined = Table::HashJoin(left, "k", right, "k").value();
  ASSERT_EQ(joined.num_rows(), 2u);
  EXPECT_EQ(joined.column(0).int64s(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(Codes(joined.column(1)), (std::vector<uint32_t>{5, 6}));
  EXPECT_EQ(Codes(joined.column(2)), (std::vector<uint32_t>{10, 9}));
  EXPECT_EQ(joined.column(1).code_width(), 2u);
  EXPECT_EQ(joined.column(2).code_width(), 4u);
}

std::vector<int64_t> KeysOf(int64_t n, int64_t scale) {
  std::vector<int64_t> keys;
  for (int64_t i = 1; i <= n; ++i) keys.push_back(i * scale);
  return keys;
}

INSTANTIATE_TEST_SUITE_P(
    KeySets, HashJoinKeySetTest,
    ::testing::Values(
        JoinKeySet{"dense", KeysOf(64, 1), true},
        JoinKeySet{"sparse", KeysOf(64, 1'000'003), false},
        JoinKeySet{"negative", KeysOf(64, -3), true},
        JoinKeySet{"int64_limits",
                   {std::numeric_limits<int64_t>::min(), 0,
                    std::numeric_limits<int64_t>::max()},
                   false}),
    [](const ::testing::TestParamInfo<JoinKeySet>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace eep::table
