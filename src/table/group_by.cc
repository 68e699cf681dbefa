#include "table/group_by.h"

#include <algorithm>
#include <cassert>

#include "table/partitioned_group_by.h"

namespace eep::table {

Result<GroupKeyCodec> GroupKeyCodec::Create(
    const Schema& schema, const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("GroupKeyCodec needs >= 1 column");
  }
  GroupKeyCodec codec;
  codec.columns_ = columns;
  uint64_t domain = 1;
  for (const auto& name : columns) {
    EEP_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
    const Field& field = schema.field(idx);
    if (field.type != DataType::kCategory) {
      return Status::InvalidArgument("group column '" + name +
                                     "' is not categorical");
    }
    const auto radix = static_cast<uint32_t>(field.dictionary->size());
    if (radix == 0) {
      return Status::InvalidArgument("group column '" + name +
                                     "' has empty dictionary");
    }
    if (domain > UINT64_MAX / radix) {
      return Status::OutOfRange("group domain overflows uint64");
    }
    domain *= radix;
    codec.column_indices_.push_back(idx);
    codec.radices_.push_back(radix);
  }
  return codec;
}

uint64_t GroupKeyCodec::DomainSize() const {
  uint64_t domain = 1;
  for (uint32_t r : radices_) domain *= r;
  return domain;
}

uint64_t GroupKeyCodec::Pack(const std::vector<uint32_t>& codes) const {
  assert(codes.size() == radices_.size());
  uint64_t key = 0;
  for (size_t i = 0; i < codes.size(); ++i) {
    assert(codes[i] < radices_[i]);
    key = key * radices_[i] + codes[i];
  }
  return key;
}

std::vector<uint32_t> GroupKeyCodec::Unpack(uint64_t key) const {
  std::vector<uint32_t> codes(radices_.size());
  for (size_t i = radices_.size(); i-- > 0;) {
    codes[i] = static_cast<uint32_t>(key % radices_[i]);
    key /= radices_[i];
  }
  return codes;
}

Result<std::string> GroupKeyCodec::Describe(const Schema& schema,
                                            uint64_t key) const {
  if (key >= DomainSize()) return Status::OutOfRange("key outside domain");
  const auto codes = Unpack(key);
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ",";
    const Field& field = schema.field(column_indices_[i]);
    EEP_ASSIGN_OR_RETURN(std::string value,
                         field.dictionary->ValueOf(codes[i]));
    out += columns_[i] + "=" + value;
  }
  return out;
}

int64_t GroupedCell::MaxEstabContribution() const {
  int64_t best = 0;
  for (const auto& c : contributions) best = std::max(best, c.count);
  return best;
}

const GroupedCell* GroupedCounts::Find(uint64_t key) const {
  auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const GroupedCell& cell, uint64_t k) { return cell.key < k; });
  if (it == cells.end() || it->key != key) return nullptr;
  return &*it;
}

Result<GroupedCounts> GroupCountByEstablishment(
    const Table& table, const std::vector<std::string>& group_columns,
    const std::string& estab_id_column, const GroupByOptions& options) {
  EEP_ASSIGN_OR_RETURN(GroupKeyCodec codec,
                       GroupKeyCodec::Create(table.schema(), group_columns));
  EEP_ASSIGN_OR_RETURN(const Column* estab_col,
                       table.ColumnByName(estab_id_column));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* estab_ids,
                       estab_col->AsInt64());

  const uint64_t domain = codec.DomainSize();
  GroupedCounts result{std::move(codec), {}};
  if (ChooseScanPath(*estab_ids, domain, options.num_threads) ==
      ScanPath::kDense) {
    result.cells = GroupEstabOrdered(table, result.codec, *estab_ids,
                                     options.num_threads);
  } else {
    result.cells = AggregateByKeyAndEstab(table, result.codec, *estab_ids,
                                          options.num_threads);
  }
  return result;
}

}  // namespace eep::table
