#include "table/group_by_cache.h"

#include <algorithm>

#include "table/rollup.h"

namespace eep::table {

namespace {

bool Covers(const std::vector<std::string>& superset,
            const std::vector<std::string>& subset) {
  return std::all_of(subset.begin(), subset.end(), [&](const auto& col) {
    return std::find(superset.begin(), superset.end(), col) != superset.end();
  });
}

size_t CountItems(const GroupedCounts& grouped) {
  size_t items = 0;
  for (const GroupedCell& cell : grouped.cells) {
    items += cell.contributions.size();
  }
  return items;
}

}  // namespace

Result<std::shared_ptr<const GroupedCounts>> GroupByCache::GetOrCompute(
    const Table& table, const std::vector<std::string>& columns,
    const std::string& estab_id_column, const GroupByOptions& options,
    Outcome* outcome, std::vector<std::string>* source_columns) {
  if (source_columns != nullptr) source_columns->clear();
  // Holding the lock across the compute serializes concurrent misses — the
  // point of the cache is to do the expensive work once, and letting two
  // callers race the same scan would waste exactly what it exists to save.
  std::lock_guard<std::mutex> lock(mu_);
  if (table_ == nullptr) {
    table_ = &table;
    estab_id_column_ = estab_id_column;
  } else if (table_ != &table || estab_id_column_ != estab_id_column) {
    return Status::InvalidArgument(
        "GroupByCache is bound to a different table or establishment "
        "column; use one cache per dataset");
  }

  if (auto it = entries_.find(columns); it != entries_.end()) {
    if (outcome != nullptr) *outcome = Outcome::kExactHit;
    return it->second.grouped;
  }

  // Rank every covering cached grouping against a fresh scan by the shared
  // cost model: a roll-up whose columns prefix the entry's touches each
  // cached item once, any other roll-up is priced several times that, a
  // scan touches each row (twice, but the sort input run-compresses). The
  // prefix test that prices the winner also classifies its outcome.
  // Ties go to the roll-up — it never re-reads the table. Every plan is an
  // exact aggregation of the same row multiset, so the choice is invisible
  // in the result.
  const Entry* source = nullptr;
  const std::vector<std::string>* source_key = nullptr;
  bool source_is_prefix = false;
  double best_cost = RollupCostModel::Scan(table.num_rows());
  for (const auto& [cached_columns, entry] : entries_) {
    if (!Covers(cached_columns, columns)) continue;
    const bool prefix = IsColumnPrefix(cached_columns, columns);
    const double cost = prefix ? RollupCostModel::PrefixMerge(entry.num_items)
                               : RollupCostModel::Resort(entry.num_items);
    if (source == nullptr ? cost <= best_cost : cost < best_cost) {
      source = &entry;
      source_key = &cached_columns;
      source_is_prefix = prefix;
      best_cost = cost;
    }
  }

  Entry entry;
  if (source != nullptr) {
    EEP_ASSIGN_OR_RETURN(GroupKeyCodec codec,
                         GroupKeyCodec::Create(table.schema(), columns));
    EEP_ASSIGN_OR_RETURN(GroupedCounts rolled,
                         RollupGroupedCounts(*source->grouped,
                                             std::move(codec),
                                             options.num_threads));
    entry.grouped = std::make_shared<const GroupedCounts>(std::move(rolled));
    if (outcome != nullptr) {
      *outcome = source_is_prefix ? Outcome::kPrefixMerge : Outcome::kRollup;
    }
    if (source_columns != nullptr) *source_columns = *source_key;
  } else {
    EEP_ASSIGN_OR_RETURN(GroupedCounts grouped,
                         GroupCountByEstablishment(table, columns,
                                                   estab_id_column, options));
    entry.grouped = std::make_shared<const GroupedCounts>(std::move(grouped));
    if (outcome != nullptr) *outcome = Outcome::kScan;
  }
  entry.num_items = CountItems(*entry.grouped);
  return entries_.emplace(columns, std::move(entry)).first->second.grouped;
}

}  // namespace eep::table
