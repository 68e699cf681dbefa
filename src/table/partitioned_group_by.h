// Parallel partitioned aggregation: the execution engine behind
// GroupCountByEstablishment (group_by.h) and the re-sort roll-up
// (rollup.h).
//
// The pipeline is columnar and sort-based instead of hash-based:
//
//   1. MaterializeGroupKeys packs every row's group key with one contiguous
//      loop per group column (auto-vectorizable; no per-row gather).
//   2. Aggregate(Weighted)ByKeyAndEstab range-partitions the rows by key
//      (partition p holds keys in [p, p+1) * domain/P), sorts each
//      partition — as packed (key, estab) uint64s through an LSD radix
//      sort when they fit in one word, as (key, estab) pairs through
//      std::sort otherwise — and run-length aggregates the sorted runs.
//   3. Partitions concatenate in order, so the result is globally
//      key-sorted without a merge.
//
// Determinism contract: the output depends only on the multiset of input
// rows — range partitioning preserves key order across partitions and the
// per-partition result is a function of the partition's multiset alone —
// so it is bit-identical for every thread count and partition count. The
// release pipeline's cross-thread-count reproducibility guarantee and the
// exactness of the cube roll-ups (rollup.h) rely on this; see
// docs/ARCHITECTURE.md, "Thread/partition-invariant group-by".
#ifndef EEP_TABLE_PARTITIONED_GROUP_BY_H_
#define EEP_TABLE_PARTITIONED_GROUP_BY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "table/group_by.h"
#include "table/table.h"

namespace eep::table {

/// Resolves a requested worker count: values <= 0 mean
/// std::thread::hardware_concurrency() (at least 1).
int ResolveGroupByThreads(int num_threads);

/// Runs fn(worker_index) for worker_index in [0, threads); the caller's
/// thread is worker 0. The work split across workers must never affect
/// results — every parallel phase in this engine (and in rollup.cc) keeps
/// the determinism contract by making each worker's output a pure function
/// of a key-range of the input.
void RunOnWorkers(int threads, const std::function<void(int)>& fn);

/// Columnwise fused key packing: keys[row] = codec.Pack(codes of row),
/// computed as one contiguous multiply-add sweep per group column.
/// `codec` must have been created against `table`'s schema. Splits the row
/// range across `num_threads` workers (<= 0 means hardware concurrency);
/// the result is identical for every thread count.
std::vector<uint64_t> MaterializeGroupKeys(const Table& table,
                                           const GroupKeyCodec& codec,
                                           int num_threads);

/// Aggregates (keys[i], estab_ids[i]) pairs into key-sorted cells with
/// estab-sorted contribution lists. Requires keys[i] < domain_size and
/// estab_ids.size() == keys.size(). Consumes `keys` (it is reused as
/// scratch). Deterministic for every thread count.
std::vector<GroupedCell> AggregateByKeyAndEstab(
    std::vector<uint64_t> keys, const std::vector<int64_t>& estab_ids,
    uint64_t domain_size, int num_threads);

/// Weighted form of AggregateByKeyAndEstab: item i carries weights[i]
/// instead of an implicit weight of 1, so already-aggregated inputs (e.g.
/// the contribution items of a finer grouping being rolled up to a coarser
/// key domain — see rollup.h) re-aggregate through the same run-compression
/// and partitioned-sort machinery. Weights sum per (key, estab) pair; the
/// result is exactly what AggregateByKeyAndEstab would return on the
/// expansion of each item into weights[i] unit rows, and is deterministic
/// for every thread count. Requires weights.size() == keys.size().
std::vector<GroupedCell> AggregateWeightedByKeyAndEstab(
    std::vector<uint64_t> keys, const std::vector<int64_t>& estab_ids,
    const std::vector<int64_t>& weights, uint64_t domain_size,
    int num_threads);

}  // namespace eep::table

#endif  // EEP_TABLE_PARTITIONED_GROUP_BY_H_
