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
// One routine serves every column subset and order. It projects each base
// cell's key onto the coarse domain, orders the cells by coarse key, and
// merges each run of equal coarse keys into one output cell. The base is
// key-sorted, so when the coarse columns are a key prefix of the base (the
// shape the workload planner arranges for) the projected keys come out
// already ordered and nothing is sorted; any other subset or permutation
// sorts the cell indices with one radix sort. Runs never straddle two
// workers, and every run strategy sums the same integer multiset, so the
// thread count, the sort and the run strategy are all invisible in the
// result.
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
/// rest. Coarse columns that sit next to each other, in the same order, in
/// the base codec share one digit, so a key-prefix projection is one
/// divide. Built once per roll-up.
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
      uint64_t digit = base_key / d.div;
      if (d.radix != 0) digit %= d.radix;
      key += digit * d.stride;
    }
    return key;
  }

  uint64_t coarse_domain_size() const { return coarse_domain_size_; }

 private:
  /// One run of coarse columns that are adjacent, in order, in the base.
  struct Digit {
    uint64_t div = 1;     ///< Product of base radices packed after the run.
    uint64_t radix = 1;   ///< Product of the run's radices, or 0 when the
                          ///< run starts at the base's first column, whose
                          ///< quotient needs no reduction.
    uint64_t stride = 1;  ///< Product of coarse radices packed after it.
  };
  std::vector<Digit> digits_;
  uint64_t coarse_domain_size_ = 1;
};

/// True when `subset` is exactly the first subset.size() columns of `base`,
/// in the same order — the shape whose roll-up needs no sort. Planners use
/// it to price and count roll-ups before building codecs (group_by_cache.cc,
/// lodes/workload.cc); radices are implied equal when both lists come from
/// the same table's schema. Identity (subset == base) counts as a prefix.
bool IsColumnPrefix(const std::vector<std::string>& base,
                    const std::vector<std::string>& subset);

/// Rolls `base` up to the cross-classification of `coarse_codec`'s columns
/// (a subset — in any order — of the base codec's columns, built against
/// the same schema). Every (cell, contribution) item of the base re-enters
/// the aggregation under its projected key, so the result is bit-identical
/// to GroupCountByEstablishment on the coarse columns directly, at the
/// cost of |base items| instead of |table rows|, plus one sort of the base
/// cells when the projected keys come out of order.
Result<GroupedCounts> RollupGroupedCounts(const GroupedCounts& base,
                                          GroupKeyCodec coarse_codec,
                                          int num_threads = 1);

/// \brief Shared cost model for choosing how to obtain a grouping, in
/// abstract units of "input elements touched". Used by GroupByCache to rank
/// a table scan against roll-ups from cached entries, and by the workload
/// cover-group planner (lodes/workload.cc) with *estimated* item counts.
/// The constants were calibrated on the paper-scale extract against the
/// radix scan path and against a non-prefix roll-up that flattened every
/// base item and re-aggregated it through the radix engine (see
/// docs/BENCHMARKS.md): a scan touches every row twice (key
/// materialization + run-compressed aggregation), a prefix roll-up touches
/// every base item once, and that non-prefix roll-up paid flatten +
/// scatter + radix passes over items that no longer run-compress. Both
/// have since become cheaper: an establishment-ordered extract scans on
/// the dense path (partitioned_group_by.h), and a non-prefix roll-up sorts
/// the base cells, not their items, before merging runs. The constants are
/// deliberately unchanged, so every plan stays as it was;
/// docs/BENCHMARKS.md ("Dense-domain scan", "One roll-up path") records
/// the measured per-row and per-item costs for recalibrating them.
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
