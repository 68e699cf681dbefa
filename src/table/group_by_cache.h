// A grouped-cell cache over one table: repeated group-bys skip the scan.
//
// The cache exploits the roll-up lattice (rollup.h): a request is served by
// an exact cached match when one exists; otherwise every cached grouping
// whose column set covers the request is a roll-up candidate, ranked
// against a fresh table scan by the shared cost model
// (table::RollupCostModel). A roll-up whose columns are a prefix of the
// cached grouping's merges runs without sorting and is priced as a prefix
// merge; any other roll-up also sorts the cached cells and is priced
// higher; a scan pays per row on whichever path it takes (the dense path
// for an establishment-ordered table, the radix path otherwise; the model
// prices both as the radix path). The cheapest plan wins, so a
// pathologically wide cached grouping (~one item per row) no longer
// shadows a cheaper re-scan the way a fewest-items rule did. Because both
// scan paths and every roll-up are exact integer aggregations of the same
// row multiset, every plan returns bit-identical results — callers cannot
// observe which one served them except through GetOrCompute's `outcome`.
// Entries are shared_ptrs, so a workload holding a marginal alive keeps
// only that grouping pinned.
//
// The cache holds establishment-tracked groupings (GroupedCounts) of one
// table: it binds to the first (table, estab column) it serves and rejects
// other tables, since grouped counts are only reusable against the
// identical row multiset. It is NOT invalidated by mutation of the
// underlying table — callers own that (tables here are immutable after
// dataset construction).
// All methods are thread-safe.
#ifndef EEP_TABLE_GROUP_BY_CACHE_H_
#define EEP_TABLE_GROUP_BY_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/group_by.h"

namespace eep::table {

class GroupByCache {
 public:
  /// How a GetOrCompute call was served.
  enum class Outcome {
    kExactHit,     ///< Cached grouping with exactly these columns.
    kPrefixMerge,  ///< Roll-up from a cached grouping these columns prefix.
    kRollup,       ///< Any other roll-up from a cached superset; no scan.
    kScan,         ///< Full table scan (GroupCountByEstablishment).
  };

  /// Returns the grouping of `columns` over `table`, choosing the cheapest
  /// plan under RollupCostModel: an exact cached match, a roll-up from a
  /// covering cached grouping, or a fresh table scan (also taken when a
  /// covering entry exists but rolling up from it is modeled as dearer
  /// than re-scanning). `outcome`, when non-null,
  /// reports which path served the call; `source_columns`, when non-null,
  /// receives the covering entry a kPrefixMerge/kRollup was derived from
  /// (it is cleared otherwise). Results are cached under their exact
  /// ordered column list; the same columns in a different order are a
  /// different grouping (different key packing) but still roll up from
  /// each other without a scan.
  Result<std::shared_ptr<const GroupedCounts>> GetOrCompute(
      const Table& table, const std::vector<std::string>& columns,
      const std::string& estab_id_column, const GroupByOptions& options = {},
      Outcome* outcome = nullptr,
      std::vector<std::string>* source_columns = nullptr);

 private:
  struct Entry {
    std::shared_ptr<const GroupedCounts> grouped;
    size_t num_items = 0;  ///< Total contributions: roll-up input size.
  };

  mutable std::mutex mu_;
  const Table* table_ = nullptr;
  std::string estab_id_column_;
  std::map<std::vector<std::string>, Entry> entries_;
};

}  // namespace eep::table

#endif  // EEP_TABLE_GROUP_BY_CACHE_H_
