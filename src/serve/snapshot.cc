#include "serve/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <string_view>
#include <unordered_map>
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
  if (data.header.size() < 2) {
    return Status::InvalidArgument(
        "served table '" + data.name +
        "' needs at least one attribute column plus the value column");
  }
  const size_t n = data.rows.size();
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("served table '" + data.name +
                                   "' has more rows than 32-bit positions");
  }
  std::vector<double> values(n);
  for (size_t r = 0; r < n; ++r) {
    const std::vector<std::string>& row = data.rows[r];
    if (row.size() != data.header.size()) {
      return Status::InvalidArgument("served table '" + data.name +
                                     "' has a row arity mismatch");
    }
    if (!ParseCount(row.back(), &values[r])) {
      return Status::InvalidArgument(
          "served table '" + data.name + "' row " + std::to_string(r) +
          " has value cell '" + row.back() + "', not a finite number");
    }
  }

  ServedTable table;
  const size_t attrs = data.header.size() - 1;
  table.columns_.resize(attrs);
  // Intern each column's labels, recode them by byte-order rank so that
  // comparing codes compares the strings, and append the codes to the
  // row keys: the first column ends up in the most significant bits, so
  // key order is attribute-tuple order.
  std::vector<uint64_t> keys(n, 0);
  std::vector<uint32_t> first_seen(n);
  uint32_t total_bits = 0;
  for (size_t c = 0; c < attrs; ++c) {
    std::unordered_map<std::string_view, uint32_t> interned;
    std::vector<std::string_view> distinct;
    for (size_t r = 0; r < n; ++r) {
      const auto [it, inserted] = interned.try_emplace(
          data.rows[r][c], static_cast<uint32_t>(distinct.size()));
      if (inserted) distinct.push_back(it->first);
      first_seen[r] = it->second;
    }
    std::vector<uint32_t> order(distinct.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&distinct](uint32_t a, uint32_t b) {
      return distinct[a] < distinct[b];
    });
    std::vector<uint32_t> rank(distinct.size());
    Column& column = table.columns_[c];
    column.labels.reserve(distinct.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = i;
      column.labels.emplace_back(distinct[order[i]]);
    }
    column.bits = distinct.empty() ? 0 : BitWidth(distinct.size() - 1);
    total_bits += column.bits;
    for (size_t r = 0; r < n; ++r) {
      keys[r] = (keys[r] << column.bits) | rank[first_seen[r]];
    }
  }
  if (total_bits > 64) {
    return Status::InvalidArgument(
        "served table '" + data.name + "' needs " +
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
  table.counts_.resize(n);
  std::vector<std::pair<double, uint32_t>> ranked(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const auto [key, row] = sorted[pos];
    table.keys_[pos] = key;
    table.counts_[pos] = std::move(data.rows[row].back());
    ranked[pos] = {values[row], static_cast<uint32_t>(pos)};
  }
  // Count descending; positions are in tuple order, so ascending position
  // breaks ties by attribute tuple.
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<double, uint32_t>& a,
               const std::pair<double, uint32_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  table.by_rank_.resize(n);
  for (size_t i = 0; i < n; ++i) table.by_rank_[i] = ranked[i].second;

  table.name_ = std::move(data.name);
  table.header_ = std::move(data.header);
  return table;
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

std::vector<std::string> ServedTable::AttrColumns() const {
  return std::vector<std::string>(header_.begin(), header_.end() - 1);
}

std::vector<std::vector<std::string>> ServedTable::Rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(keys_.size());
  for (size_t pos = 0; pos < keys_.size(); ++pos) {
    rows.push_back(Unpack(keys_[pos]));
    rows.back().push_back(counts_[pos]);
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
  uint64_t packed = 0;
  for (size_t c = 0; c < attrs; ++c) {
    const std::vector<std::string>& labels = columns_[c].labels;
    const auto it = std::lower_bound(labels.begin(), labels.end(), key[c]);
    if (it == labels.end() || *it != key[c]) return NoSuchCell(name_, key);
    packed |= static_cast<uint64_t>(it - labels.begin()) << columns_[c].shift;
  }
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), packed);
  if (it == keys_.end() || *it != packed) return NoSuchCell(name_, key);
  return counts_[static_cast<size_t>(it - keys_.begin())];
}

Result<std::string> ServedTable::LookupCell(
    const std::map<std::string, std::string>& values) const {
  const size_t attrs = columns_.size();
  if (values.size() != attrs) {
    return Status::InvalidArgument(
        "expected exactly one value per attribute column of table '" +
        name_ + "'");
  }
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
    out.push_back({Unpack(keys_[pos]), counts_[pos]});
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
    EEP_ASSIGN_OR_RETURN(store::TableData data,
                         store.ReadTable(epoch, meta.name));
    EEP_ASSIGN_OR_RETURN(ServedTable table, ServedTable::Build(std::move(data)));
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
