#include "table/table.h"

#include <unordered_map>

namespace eep::table {

Result<Table> Table::Create(Schema schema, std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("schema/column count mismatch");
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("column length mismatch at " +
                                     schema.field(i).name);
    }
    if (columns[i].type() != schema.field(i).type) {
      return Status::InvalidArgument("column type mismatch at " +
                                     schema.field(i).name);
    }
    if (schema.field(i).type == DataType::kCategory) {
      // Validate codes against the dictionary so later hot loops can skip
      // bounds checks.
      const auto& dict = *schema.field(i).dictionary;
      for (uint32_t code : columns[i].codes()) {
        if (code >= dict.size()) {
          return Status::OutOfRange("category code out of range in column " +
                                    schema.field(i).name);
        }
      }
    }
  }
  return Table(std::move(schema), std::move(columns), rows);
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  EEP_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

Result<Table> Table::HashJoin(const Table& left, const std::string& left_key,
                              const Table& right,
                              const std::string& right_key) {
  EEP_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));
  EEP_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* lvals, lkey->AsInt64());
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* rvals, rkey->AsInt64());

  std::unordered_map<int64_t, uint32_t> right_index;
  right_index.reserve(rvals->size());
  for (uint32_t i = 0; i < rvals->size(); ++i) {
    auto [it, inserted] = right_index.emplace((*rvals)[i], i);
    if (!inserted) {
      return Status::InvalidArgument("HashJoin: duplicate right key " +
                                     std::to_string((*rvals)[i]));
    }
  }

  // Probe: record, for each matching left row, the right row to gather.
  std::vector<bool> left_mask(left.num_rows(), false);
  std::vector<uint32_t> right_gather;
  right_gather.reserve(left.num_rows());
  for (size_t i = 0; i < lvals->size(); ++i) {
    auto it = right_index.find((*lvals)[i]);
    if (it == right_index.end()) continue;
    left_mask[i] = true;
    right_gather.push_back(it->second);
  }

  std::vector<Field> fields;
  std::vector<Column> cols;
  for (size_t i = 0; i < left.num_columns(); ++i) {
    fields.push_back(left.schema().field(i));
    cols.push_back(left.column(i).FilterCopy(left_mask));
  }
  EEP_ASSIGN_OR_RETURN(size_t rkey_idx, right.schema().IndexOf(right_key));
  for (size_t i = 0; i < right.num_columns(); ++i) {
    if (i == rkey_idx) continue;
    if (left.schema().Contains(right.schema().field(i).name)) {
      return Status::InvalidArgument("HashJoin: duplicate output column " +
                                     right.schema().field(i).name);
    }
    fields.push_back(right.schema().field(i));
    cols.push_back(right.column(i).TakeCopy(right_gather));
  }
  EEP_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(fields)));
  return Table::Create(std::move(schema), std::move(cols));
}

}  // namespace eep::table
