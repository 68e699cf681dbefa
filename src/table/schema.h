// Schema and dictionary types for the in-memory columnar engine: int64 id
// columns and dictionary-encoded category columns.
#ifndef EEP_TABLE_SCHEMA_H_
#define EEP_TABLE_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace eep::table {

/// Physical type of a column.
enum class DataType {
  kInt64,     ///< 64-bit integers (worker and establishment ids).
  kCategory,  ///< dictionary-encoded categorical values (uint32 codes).
};

/// \brief Immutable mapping between categorical string values and dense
/// uint32 codes. Shared between a Field and its Column.
class Dictionary {
 public:
  /// Builds a dictionary from distinct values; fails on duplicates.
  static Result<std::shared_ptr<const Dictionary>> Create(
      std::vector<std::string> values);

  size_t size() const { return values_.size(); }

  /// Code of `value`, or NotFound.
  Result<uint32_t> CodeOf(const std::string& value) const;

  /// String for `code`; OutOfRange on bad codes.
  Result<std::string> ValueOf(uint32_t code) const;

  /// Unchecked accessor for hot paths; requires code < size().
  const std::string& value(uint32_t code) const { return values_[code]; }

  const std::vector<std::string>& values() const { return values_; }

 private:
  explicit Dictionary(std::vector<std::string> values);
  std::vector<std::string> values_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// \brief A named, typed column slot in a Schema.
struct Field {
  std::string name;
  DataType type = DataType::kInt64;
  /// Present iff type == kCategory.
  std::shared_ptr<const Dictionary> dictionary;
};

/// \brief Ordered list of fields with by-name lookup.
class Schema {
 public:
  Schema() = default;

  /// Fails on duplicate field names or a kCategory field with no dictionary.
  static Result<Schema> Create(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const;

 private:
  explicit Schema(std::vector<Field> fields);
  std::vector<Field> fields_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace eep::table

#endif  // EEP_TABLE_SCHEMA_H_
