#include "table/schema.h"

namespace eep::table {

Dictionary::Dictionary(std::vector<std::string> values)
    : values_(std::move(values)) {
  index_.reserve(values_.size());
  for (uint32_t i = 0; i < values_.size(); ++i) index_[values_[i]] = i;
}

Result<std::shared_ptr<const Dictionary>> Dictionary::Create(
    std::vector<std::string> values) {
  auto dict = std::shared_ptr<const Dictionary>(
      new Dictionary(std::move(values)));
  if (dict->index_.size() != dict->values_.size()) {
    return Status::InvalidArgument("Dictionary has duplicate values");
  }
  return dict;
}

Result<uint32_t> Dictionary::CodeOf(const std::string& value) const {
  auto it = index_.find(value);
  if (it == index_.end()) {
    return Status::NotFound("dictionary value not found: " + value);
  }
  return it->second;
}

Result<std::string> Dictionary::ValueOf(uint32_t code) const {
  if (code >= values_.size()) {
    return Status::OutOfRange("dictionary code out of range");
  }
  return values_[code];
}

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  index_.reserve(fields_.size());
  for (size_t i = 0; i < fields_.size(); ++i) index_[fields_[i].name] = i;
}

Result<Schema> Schema::Create(std::vector<Field> fields) {
  for (const auto& f : fields) {
    if (f.type == DataType::kCategory && f.dictionary == nullptr) {
      return Status::InvalidArgument("category field '" + f.name +
                                     "' lacks a dictionary");
    }
    if (f.name.empty()) {
      return Status::InvalidArgument("field with empty name");
    }
  }
  Schema schema(std::move(fields));
  if (schema.index_.size() != schema.fields_.size()) {
    return Status::InvalidArgument("schema has duplicate field names");
  }
  return schema;
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return Status::NotFound("no field named " + name);
  return it->second;
}

bool Schema::Contains(const std::string& name) const {
  return index_.count(name) > 0;
}

}  // namespace eep::table
