// GROUP BY execution over categorical columns: the engine behind the
// paper's marginal queries (Definition 2.1).
#ifndef EEP_TABLE_GROUP_BY_H_
#define EEP_TABLE_GROUP_BY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace eep::table {

/// \brief Packs tuples of category codes from a fixed set of group columns
/// into a single uint64 key (mixed-radix encoding), and back.
class GroupKeyCodec {
 public:
  /// Builds a codec for the named kCategory columns of `schema`.
  /// Fails if any column is missing, non-categorical, or if the cross
  /// product of dictionary sizes overflows uint64.
  static Result<GroupKeyCodec> Create(const Schema& schema,
                                      const std::vector<std::string>& columns);

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<uint32_t>& radices() const { return radices_; }
  const std::vector<size_t>& column_indices() const { return column_indices_; }

  /// Total number of cells in the cross-product domain |dom(V)|.
  uint64_t DomainSize() const;

  /// Packs one tuple of codes (one per group column, in codec order).
  uint64_t Pack(const std::vector<uint32_t>& codes) const;

  /// Unpacks a key into per-column codes.
  std::vector<uint32_t> Unpack(uint64_t key) const;

  /// Human-readable cell label "col1=value1,col2=value2,...".
  Result<std::string> Describe(const Schema& schema, uint64_t key) const;

 private:
  GroupKeyCodec() = default;
  std::vector<std::string> columns_;
  std::vector<size_t> column_indices_;
  std::vector<uint32_t> radices_;
};

/// \brief Execution options for the group-by entry points.
struct GroupByOptions {
  /// Worker threads for either scan path (partitioned_group_by.h): row
  /// blocks of the dense path, or key packing with run compression,
  /// partitioning and per-partition sorting of the radix path; <= 0 means
  /// std::thread::hardware_concurrency(). The count also enters the
  /// dense path's gate (one domain-sized table per worker), so a sweep may
  /// cross paths; the result is bit-identical for every thread count and
  /// either path (see partitioned_group_by.h for the contract).
  int num_threads = 1;
};

/// \brief Per-establishment contribution to one group-by cell.
struct EstabContribution {
  int64_t estab_id = 0;
  int64_t count = 0;
};

/// \brief One non-empty cell of a grouped count, with the establishment
/// breakdown needed by both the SDL baseline (per-establishment fuzz
/// factors) and the smooth-sensitivity mechanisms (x_v = max contribution).
struct GroupedCell {
  uint64_t key = 0;
  int64_t count = 0;
  /// Sorted by estab_id; counts sum to `count`.
  std::vector<EstabContribution> contributions;

  /// x_v of Lemma 8.5: the largest single-establishment contribution.
  int64_t MaxEstabContribution() const;
  int64_t NumEstablishments() const {
    return static_cast<int64_t>(contributions.size());
  }
};

/// \brief Result of GroupCountByEstablishment: non-empty cells sorted by key.
struct GroupedCounts {
  GroupKeyCodec codec;
  std::vector<GroupedCell> cells;

  /// Cell lookup by key; nullptr when the cell has no contributing rows.
  const GroupedCell* Find(uint64_t key) const;
};

/// Counts rows per cell of the cross product of `group_columns`, tracking
/// per-establishment contributions via the int64 column `estab_id_column`.
/// Only non-empty cells are materialized; callers that need the full domain
/// enumerate via the codec (see lodes::MarginalQuery). Executed by the
/// parallel columnar engine in partitioned_group_by.h on one of two paths
/// chosen by ChooseScanPath: an establishment-ordered extract with a
/// small enough key domain takes the dense path (one dedup pass, one
/// counting sort), anything else the radix path (columnwise key packing,
/// range partitioning by key, per-partition sort-and-run-length
/// aggregation), across options.num_threads workers.
Result<GroupedCounts> GroupCountByEstablishment(
    const Table& table, const std::vector<std::string>& group_columns,
    const std::string& estab_id_column, const GroupByOptions& options = {});

}  // namespace eep::table

#endif  // EEP_TABLE_GROUP_BY_H_
