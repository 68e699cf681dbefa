// Data-cube roll-ups over grouped counts: derive the grouping of a coarser
// column subset from an already-computed finer grouping, without touching
// the base table again.
//
// A grouped count is a pure function of the (key, estab) multiset with
// integer weights, so re-aggregating the finer grouping's items under the
// projected coarse key yields EXACTLY the result a direct group-by on the
// coarse columns would produce — bit-identical cells, counts and
// contribution lists, for every thread count (see the determinism contract
// in partitioned_group_by.h and docs/ARCHITECTURE.md). This is what lets a
// workload of marginals share one full-table scan: compute the finest
// common cross-classification once, then roll every coarser marginal up
// from it (lodes/workload.h) or serve it from a cache (group_by_cache.h).
//
// Two execution paths, chosen automatically per roll-up:
//
//  * PREFIX MERGE — when the coarse columns are exactly the first k base
//    columns (same order), the projection is a plain division, so the
//    base's global key order is preserved. The roll-up is then ONE weighted
//    run-length merge pass over the base cells: no projection buffer, no
//    global re-sort (pathologically wide runs sort their own items
//    locally). Runs are split across workers at coarse-key boundaries.
//  * RE-SORT — any other subset/permutation: the base items are flattened
//    and projected in parallel (per-cell offsets make every worker's write
//    range disjoint) and re-aggregated through the weighted partitioned
//    engine.
//
// Both paths are exact integer re-aggregations of the same item multiset,
// so they agree bit for bit with each other and with a direct scan.
#ifndef EEP_TABLE_ROLLUP_H_
#define EEP_TABLE_ROLLUP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/group_by.h"

namespace eep::table {

/// \brief Arithmetic projection from a finer packed key domain onto a
/// coarser one: keeps the digits of the coarse codec's columns (in the
/// coarse codec's order, which may permute the base order) and sums out the
/// rest. Built once per roll-up; Project is a handful of multiply-divides
/// per key.
class KeyProjection {
 public:
  /// Requires every coarse column to appear in the base codec with the same
  /// radix (same dictionary); column order may differ.
  static Result<KeyProjection> Create(const GroupKeyCodec& base,
                                      const GroupKeyCodec& coarse);

  /// Projects one base key onto the coarse domain.
  uint64_t Project(uint64_t base_key) const {
    uint64_t key = 0;
    for (const Digit& d : digits_) {
      key += ((base_key / d.div) % d.radix) * d.stride;
    }
    return key;
  }

  uint64_t coarse_domain_size() const { return coarse_domain_size_; }

 private:
  struct Digit {
    uint64_t div = 1;     ///< Product of base radices packed after the digit.
    uint64_t radix = 1;   ///< The digit's own radix.
    uint64_t stride = 1;  ///< Product of coarse radices packed after it.
  };
  std::vector<Digit> digits_;
  uint64_t coarse_domain_size_ = 1;
};

/// \brief Which execution path served a roll-up.
enum class RollupKind {
  kPrefixMerge,  ///< Coarse = key prefix: one run-length merge pass.
  kResort,       ///< Parallel flatten + weighted partitioned re-sort.
};

/// True when `coarse`'s columns are exactly the first coarse.columns().size()
/// columns of `base`, in the same order (with matching radices) — the shape
/// whose projection is a plain division of the packed key, preserving the
/// base's global sort order. Identity (coarse == base) counts as a prefix.
bool IsKeyPrefix(const GroupKeyCodec& base, const GroupKeyCodec& coarse);

/// Column-list form of IsKeyPrefix, for planners that rank candidates
/// before building codecs (group_by_cache.cc, lodes/workload.cc). Radices
/// are implied equal when both lists come from the same table's schema.
bool IsColumnPrefix(const std::vector<std::string>& base,
                    const std::vector<std::string>& subset);

/// Rolls `base` up to the cross-classification of `coarse_codec`'s columns
/// (a subset — in any order — of the base codec's columns, built against
/// the same schema). Every (cell, contribution) item of the base re-enters
/// the weighted aggregation under its projected key, so the result is
/// bit-identical to GroupCountByEstablishment on the coarse columns
/// directly, at the cost of |base items| instead of |table rows|. When
/// `kind` is non-null it reports which path ran (prefix merge when the
/// coarse columns are a key prefix of the base, re-sort otherwise).
Result<GroupedCounts> RollupGroupedCounts(const GroupedCounts& base,
                                          GroupKeyCodec coarse_codec,
                                          int num_threads = 1,
                                          RollupKind* kind = nullptr);

/// \brief Shared cost model for choosing how to obtain a grouping, in
/// abstract units of "input elements touched". Used by GroupByCache to rank
/// a table scan against roll-ups from cached entries, and by the workload
/// cover-group planner (lodes/workload.cc) with *estimated* item counts.
/// The constants were calibrated on the paper-scale extract against the
/// radix scan path (see docs/BENCHMARKS.md): a scan touches every row
/// twice (key materialization + run-compressed aggregation), a prefix
/// merge touches every base item once, and a re-sort roll-up pays
/// flatten + scatter + radix passes over items that no longer
/// run-compress. An establishment-ordered extract now scans on the dense
/// path (partitioned_group_by.h), which costs less per row than kScanPerRow
/// says; the constants are deliberately unchanged, so every plan stays as
/// it was. Recalibrating them is a separate change (docs/BENCHMARKS.md,
/// "Dense-domain scan", records the measured per-row and per-item
/// costs).
struct RollupCostModel {
  static constexpr double kScanPerRow = 2.0;
  static constexpr double kPrefixMergePerItem = 1.0;
  static constexpr double kResortPerItem = 4.0;

  static double Scan(size_t rows) { return kScanPerRow * double(rows); }
  static double PrefixMerge(size_t items) {
    return kPrefixMergePerItem * double(items);
  }
  static double Resort(size_t items) {
    return kResortPerItem * double(items);
  }
};

}  // namespace eep::table

#endif  // EEP_TABLE_ROLLUP_H_
