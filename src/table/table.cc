#include "table/table.h"

#include <algorithm>

namespace eep::table {
namespace {

Status DuplicateRightKey(int64_t key) {
  return Status::InvalidArgument("HashJoin: duplicate right key " +
                                 std::to_string(key));
}

}  // namespace

Result<KeyIndex> KeyIndex::Build(const std::vector<int64_t>& keys,
                                 Status (*on_repeat)(int64_t key)) {
  if (keys.size() >= kNoRow) {
    return Status::InvalidArgument("KeyIndex: too many rows");
  }
  KeyIndex index;
  if (keys.empty()) return index;
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  // max - min, exact in unsigned arithmetic for every pair of int64 keys.
  const uint64_t span =
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  const uint64_t max_slots =
      2 * std::max<uint64_t>(keys.size(), uint64_t{1} << 16);
  index.dense_ = span < max_slots;
  const auto num_rows = static_cast<uint32_t>(keys.size());
  if (index.dense_) {
    index.min_ = *lo;
    index.slots_.assign(span + 1, kNoRow);
    for (uint32_t row = 0; row < num_rows; ++row) {
      uint32_t& slot = index.slots_[static_cast<uint64_t>(keys[row]) -
                                    static_cast<uint64_t>(index.min_)];
      if (slot != kNoRow) return on_repeat(keys[row]);
      slot = row;
    }
  } else {
    index.rows_.reserve(keys.size());
    for (uint32_t row = 0; row < num_rows; ++row) {
      if (!index.rows_.emplace(keys[row], row).second) {
        return on_repeat(keys[row]);
      }
    }
  }
  return index;
}

uint32_t KeyIndex::Find(int64_t key) const {
  if (dense_) {
    const uint64_t slot =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
    return slot < slots_.size() ? slots_[slot] : kNoRow;
  }
  const auto it = rows_.find(key);
  return it == rows_.end() ? kNoRow : it->second;
}

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
      const size_t dict_size = schema.field(i).dictionary->size();
      auto in_range = [dict_size](const auto& codes) {
        return std::all_of(codes.begin(), codes.end(),
                           [dict_size](auto code) { return code < dict_size; });
      };
      if (!columns[i].VisitCodes(in_range)) {
        return Status::OutOfRange("category code out of range in column " +
                                  schema.field(i).name);
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
  EEP_ASSIGN_OR_RETURN(KeyIndex right_index,
                       KeyIndex::Build(*rvals, DuplicateRightKey));

  // Probe: record, for each matching left row, the right row to gather.
  std::vector<bool> left_mask(left.num_rows(), false);
  std::vector<uint32_t> right_gather;
  right_gather.reserve(left.num_rows());
  for (size_t i = 0; i < lvals->size(); ++i) {
    const uint32_t row = right_index.Find((*lvals)[i]);
    if (row == KeyIndex::kNoRow) continue;
    left_mask[i] = true;
    right_gather.push_back(row);
  }
  // A side whose rows all come through unmoved shares its columns.
  const bool every_left_row = right_gather.size() == left.num_rows();
  bool right_in_order = right_gather.size() == right.num_rows();
  for (size_t i = 0; right_in_order && i < right_gather.size(); ++i) {
    right_in_order = right_gather[i] == i;
  }

  std::vector<Field> fields;
  std::vector<Column> cols;
  for (size_t i = 0; i < left.num_columns(); ++i) {
    fields.push_back(left.schema().field(i));
    cols.push_back(every_left_row ? left.column(i)
                                  : left.column(i).FilterCopy(left_mask));
  }
  EEP_ASSIGN_OR_RETURN(size_t rkey_idx, right.schema().IndexOf(right_key));
  for (size_t i = 0; i < right.num_columns(); ++i) {
    if (i == rkey_idx) continue;
    if (left.schema().Contains(right.schema().field(i).name)) {
      return Status::InvalidArgument("HashJoin: duplicate output column " +
                                     right.schema().field(i).name);
    }
    fields.push_back(right.schema().field(i));
    cols.push_back(right_in_order ? right.column(i)
                                  : right.column(i).TakeCopy(right_gather));
  }
  EEP_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(fields)));
  // Every column comes from a validated table under its own field, so
  // Create's per-code dictionary check would only repeat itself.
  return Table(std::move(schema), std::move(cols), right_gather.size());
}

}  // namespace eep::table
