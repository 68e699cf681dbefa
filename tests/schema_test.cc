#include "table/schema.h"

#include <gtest/gtest.h>

namespace eep::table {
namespace {

TEST(DictionaryTest, CreateAndLookup) {
  auto dict = Dictionary::Create({"a", "b", "c"}).value();
  EXPECT_EQ(dict->size(), 3u);
  EXPECT_EQ(dict->CodeOf("b").value(), 1u);
  EXPECT_EQ(dict->ValueOf(2).value(), "c");
  EXPECT_EQ(dict->value(0), "a");
}

TEST(DictionaryTest, RejectsDuplicates) {
  EXPECT_FALSE(Dictionary::Create({"a", "a"}).ok());
}

TEST(DictionaryTest, LookupErrors) {
  auto dict = Dictionary::Create({"a"}).value();
  EXPECT_EQ(dict->CodeOf("zz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict->ValueOf(5).status().code(), StatusCode::kOutOfRange);
}

TEST(SchemaTest, CreateAndIndex) {
  auto dict = Dictionary::Create({"x", "y"}).value();
  auto schema = Schema::Create({{"id", DataType::kInt64, nullptr},
                                {"cat", DataType::kCategory, dict}})
                    .value();
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.IndexOf("cat").value(), 1u);
  EXPECT_TRUE(schema.Contains("id"));
  EXPECT_FALSE(schema.Contains("nope"));
  EXPECT_EQ(schema.IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, RejectsCategoryWithoutDictionary) {
  EXPECT_FALSE(
      Schema::Create({{"cat", DataType::kCategory, nullptr}}).ok());
}

TEST(SchemaTest, RejectsDuplicateOrEmptyNames) {
  EXPECT_FALSE(Schema::Create({{"a", DataType::kInt64, nullptr},
                               {"a", DataType::kInt64, nullptr}})
                   .ok());
  EXPECT_FALSE(Schema::Create({{"", DataType::kInt64, nullptr}}).ok());
}

}  // namespace
}  // namespace eep::table
