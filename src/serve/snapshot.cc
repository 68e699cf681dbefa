#include "serve/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

namespace eep::serve {
namespace {

/// Released counts are decimal numerals (integers when the release
/// rounded, %.17g doubles otherwise). Rank order must be numeric — the
/// lexicographic string order would put "9" above "10" — and total, so a
/// cell counts only when it is wholly one finite number.
bool ParseCount(const std::string& s, double* value) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *value);
  return ec == std::errc() && ptr == end && std::isfinite(*value);
}

/// Bits needed to store codes 0..v.
uint32_t BitWidth(uint64_t v) {
  return v == 0 ? 0 : static_cast<uint32_t>(64 - __builtin_clzll(v));
}

/// The hash slots of a column's dictionary (ServedTable::Column::slots):
/// at least twice as many as labels, so a probe meets an empty slot.
std::vector<uint32_t> HashLabels(const std::vector<std::string>& labels) {
  size_t size = 1;
  while (size < 2 * labels.size()) size <<= 1;
  std::vector<uint32_t> slots(size, 0);
  for (size_t code = 0; code < labels.size(); ++code) {
    size_t s = std::hash<std::string>{}(labels[code]) & (size - 1);
    while (slots[s] != 0) s = (s + 1) & (size - 1);
    slots[s] = static_cast<uint32_t>(code + 1);
  }
  return slots;
}

Status NoSuchCell(const std::string& table,
                  const std::vector<std::string>& key) {
  std::string msg = "table '" + table + "' has no cell [";
  for (size_t c = 0; c < key.size(); ++c) {
    if (c > 0) msg += ",";
    msg += key[c];
  }
  return Status::NotFound(msg + "]");
}

}  // namespace

Result<ServedTable> ServedTable::Build(store::TableData data) {
  EEP_ASSIGN_OR_RETURN(store::CodedTable coded, store::EncodeTable(data));
  return FromCoded(std::move(coded));
}

Result<ServedTable> ServedTable::FromCoded(store::CodedTable coded) {
  if (coded.columns.size() < 2) {
    return Status::InvalidArgument(
        "served table '" + coded.name +
        "' needs at least one attribute column plus the value column");
  }
  const size_t n = coded.num_rows;
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("served table '" + coded.name +
                                   "' has more rows than 32-bit positions");
  }
  store::CodedColumn& value = coded.columns.back();
  std::vector<double> numbers(value.dict.size());
  for (size_t v = 0; v < value.dict.size(); ++v) {
    if (!ParseCount(value.dict[v], &numbers[v])) {
      return Status::InvalidArgument(
          "served table '" + coded.name + "' has value cell '" +
          value.dict[v] + "', not a finite number");
    }
  }

  ServedTable table;
  const size_t attrs = coded.columns.size() - 1;
  table.columns_.resize(attrs);
  // The codes are byte-order ranks, so appending them to the row keys
  // makes key order attribute-tuple order: the first column ends up in the
  // most significant bits.
  std::vector<uint64_t> keys(n, 0);
  uint32_t total_bits = 0;
  for (size_t c = 0; c < attrs; ++c) {
    store::CodedColumn& coded_column = coded.columns[c];
    Column& column = table.columns_[c];
    column.bits = coded_column.dict.empty()
                      ? 0
                      : BitWidth(coded_column.dict.size() - 1);
    total_bits += column.bits;
    for (size_t r = 0; r < n; ++r) {
      keys[r] = (keys[r] << column.bits) | coded_column.codes[r];
    }
    column.labels = std::move(coded_column.dict);
    column.slots = HashLabels(column.labels);
  }
  if (total_bits > 64) {
    return Status::InvalidArgument(
        "served table '" + coded.name + "' needs " +
        std::to_string(total_bits) +
        " key bits for its label dictionaries; at most 64 fit");
  }
  for (size_t c = attrs, used = 0; c-- > 0;) {
    Column& column = table.columns_[c];
    column.shift = column.bits == 0 ? 0 : static_cast<uint32_t>(used);
    used += column.bits;
  }

  // Sorting (key, stored row) pairs is a stable sort by key: equal tuples
  // keep their stored order.
  std::vector<std::pair<uint64_t, uint32_t>> sorted(n);
  for (size_t r = 0; r < n; ++r) {
    sorted[r] = {keys[r], static_cast<uint32_t>(r)};
  }
  std::sort(sorted.begin(), sorted.end());
  table.keys_.resize(n);
  table.value_codes_.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    table.keys_[pos] = sorted[pos].first;
    table.value_codes_[pos] = value.codes[sorted[pos].second];
  }

  // Buckets over the keys' top b bits, b = min(key bits, ceil(log2 n)):
  // about one key per bucket when the keys spread. b is at least 1 when
  // the key has any bits, so the shift stays below 64.
  const uint32_t b = std::min(
      total_bits, std::max<uint32_t>(1, BitWidth(n == 0 ? 0 : n - 1)));
  table.bucket_shift_ = total_bits - b;
  table.buckets_.assign((size_t{1} << b) + 1, 0);
  for (const uint64_t key : table.keys_) {
    ++table.buckets_[(key >> table.bucket_shift_) + 1];
  }
  std::partial_sum(table.buckets_.begin(), table.buckets_.end(),
                   table.buckets_.begin());

  // LookupCell's request map iterates in column-name order.
  table.by_name_.resize(attrs);
  std::iota(table.by_name_.begin(), table.by_name_.end(), 0u);
  std::sort(table.by_name_.begin(), table.by_name_.end(),
            [&coded](uint32_t a, uint32_t b) {
              return coded.header[a] < coded.header[b];
            });

  // Rank: count descending, ties by attribute tuple ascending. Value
  // codes whose numbers are equal ("2", "2.0000") share a bucket; filling
  // the buckets in ascending position (= tuple) order breaks the ties.
  std::vector<uint32_t> by_number(value.dict.size());
  std::iota(by_number.begin(), by_number.end(), 0u);
  std::sort(by_number.begin(), by_number.end(),
            [&numbers](uint32_t a, uint32_t b) {
              return numbers[a] > numbers[b];
            });
  std::vector<uint32_t> bucket_of(value.dict.size());
  for (size_t i = 0, bucket = 0; i < by_number.size(); ++i) {
    if (i > 0 && numbers[by_number[i]] != numbers[by_number[i - 1]]) ++bucket;
    bucket_of[by_number[i]] = static_cast<uint32_t>(bucket);
  }
  std::vector<uint32_t> next(value.dict.size() + 1, 0);
  for (const uint32_t code : table.value_codes_) ++next[bucket_of[code] + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  table.by_rank_.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    table.by_rank_[next[bucket_of[table.value_codes_[pos]]]++] =
        static_cast<uint32_t>(pos);
  }

  table.values_ = std::move(value.dict);
  table.name_ = std::move(coded.name);
  table.header_ = std::move(coded.header);
  return table;
}

uint32_t ServedTable::Column::CodeOf(const std::string& label) const {
  const size_t mask = slots.size() - 1;
  for (size_t s = std::hash<std::string>{}(label) & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots[s];
    if (slot == 0) return kNoCode;
    if (labels[slot - 1] == label) return slot - 1;
  }
}

template <typename LabelOf>
size_t ServedTable::FindRow(const uint32_t* order, LabelOf label_of) const {
  uint64_t packed = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const size_t c = order == nullptr ? i : order[i];
    const std::string* label = label_of(c);
    if (label == nullptr) return keys_.size();
    const uint32_t code = columns_[c].CodeOf(*label);
    if (code == kNoCode) return keys_.size();
    packed |= static_cast<uint64_t>(code) << columns_[c].shift;
  }
  const size_t bucket = static_cast<size_t>(packed >> bucket_shift_);
  const auto first = keys_.begin() + buckets_[bucket];
  const auto last = keys_.begin() + buckets_[bucket + 1];
  // Equal keys sit in stored order, so the first match is the first
  // stored row of a repeated tuple.
  const auto it = std::lower_bound(first, last, packed);
  if (it == last || *it != packed) return keys_.size();
  return static_cast<size_t>(it - keys_.begin());
}

std::vector<std::string> ServedTable::Unpack(uint64_t key) const {
  std::vector<std::string> attrs;
  attrs.reserve(columns_.size());
  for (const Column& column : columns_) {
    const uint64_t mask = (uint64_t{1} << column.bits) - 1;
    attrs.push_back(column.labels[(key >> column.shift) & mask]);
  }
  return attrs;
}

std::vector<std::vector<std::string>> ServedTable::Rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(keys_.size());
  for (size_t pos = 0; pos < keys_.size(); ++pos) {
    rows.push_back(Unpack(keys_[pos]));
    rows.back().push_back(values_[value_codes_[pos]]);
  }
  return rows;
}

Result<std::string> ServedTable::Lookup(
    const std::vector<std::string>& key) const {
  const size_t attrs = columns_.size();
  if (key.size() != attrs) {
    return Status::InvalidArgument(
        "lookup key has " + std::to_string(key.size()) + " values, table '" +
        name_ + "' has " + std::to_string(attrs) + " attribute columns");
  }
  const size_t pos = FindRow(nullptr, [&key](size_t c) { return &key[c]; });
  if (pos == keys_.size()) return NoSuchCell(name_, key);
  return values_[value_codes_[pos]];
}

Result<std::string> ServedTable::LookupCell(
    const std::map<std::string, std::string>& values) const {
  const size_t attrs = columns_.size();
  if (values.size() != attrs) {
    return Status::InvalidArgument(
        "expected exactly one value per attribute column of table '" +
        name_ + "'");
  }
  auto entry = values.begin();
  const size_t pos =
      FindRow(by_name_.data(), [&](size_t c) -> const std::string* {
        const auto& [column, label] = *entry++;
        return column == header_[c] ? &label : nullptr;
      });
  if (pos < keys_.size()) return values_[value_codes_[pos]];

  // A misnamed column or a miss: rebuild the key in header order to name
  // the first missing column, or the absent cell.
  std::vector<std::string> key;
  key.reserve(attrs);
  for (size_t c = 0; c < attrs; ++c) {
    auto it = values.find(header_[c]);
    if (it == values.end()) {
      return Status::InvalidArgument("no value for attribute column '" +
                                     header_[c] + "' of table '" + name_ +
                                     "'");
    }
    key.push_back(it->second);
  }
  return Lookup(key);
}

std::vector<RankedCell> ServedTable::TopK(size_t k) const {
  const size_t n = std::min(k, by_rank_.size());
  std::vector<RankedCell> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pos = by_rank_[i];
    out.push_back({Unpack(keys_[pos]), values_[value_codes_[pos]]});
  }
  return out;
}

Result<Snapshot> Snapshot::Load(const store::Store& store, uint64_t epoch) {
  EEP_ASSIGN_OR_RETURN(const store::EpochInfo* info, store.GetEpoch(epoch));
  Snapshot snapshot;
  snapshot.epoch_ = epoch;
  snapshot.fingerprint_ = info->fingerprint;
  snapshot.tables_.reserve(info->tables.size());
  for (const store::TableMeta& meta : info->tables) {
    EEP_ASSIGN_OR_RETURN(store::CodedTable coded,
                         store.ReadCoded(epoch, meta.name));
    EEP_ASSIGN_OR_RETURN(ServedTable table,
                         ServedTable::FromCoded(std::move(coded)));
    snapshot.tables_.push_back(std::move(table));
  }
  return snapshot;
}

Result<const ServedTable*> Snapshot::Find(const std::string& name) const {
  for (const ServedTable& table : tables_) {
    if (table.name() == name) return &table;
  }
  if (epoch_ == 0) {
    return Status::NotFound("no epoch is loaded yet (empty snapshot)");
  }
  return Status::NotFound("epoch " + std::to_string(epoch_) +
                          " has no table '" + name + "'");
}

}  // namespace eep::serve
