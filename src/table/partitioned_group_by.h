// Parallel columnar aggregation: the execution engine behind
// GroupCountByEstablishment (group_by.h), and the radix sort the roll-up
// (rollup.h) orders its cells and wide runs with.
//
// A table scan takes one of two paths, chosen by ChooseScanPath from the
// input and the worker count alone:
//
//  * DENSE — establishment ids non-decreasing (the extract's natural
//    order) and a key domain small enough for one uint32 table per worker
//    (domain <= max(rows, 2^16) / workers, so the tables together hold at
//    most 4 bytes per input row at any worker count, or 256 KiB below
//    2^16 rows). GroupEstabOrdered packs keys in cache-sized row chunks and
//    keeps one item per distinct (key, estab) pair through a domain-sized
//    slot table, then sorts the items by key with one stable counting
//    sort (histogram, prefix sum, scatter) and copies each key's run into
//    an exact-size contribution list. Worker blocks start at
//    establishment boundaries, so key-major, block-minor order is
//    establishment order within every cell: no sort, no merge.
//  * RADIX — everything else (unordered ids, wide domains), all in
//    AggregateByKeyAndEstab:
//      1. Each worker packs its row block's group keys in the same
//         cache-sized chunks (one contiguous loop per group column, no
//         per-row gather, no n-sized key vector) and run-compresses them
//         into (key, estab, run length) items.
//      2. The items are range-partitioned by key (partition p holds keys
//         in [p, p+1) * domain/P), each partition is sorted — as packed
//         (key, estab) uint64s through RadixSortWithWeights when they fit
//         in one word, as (key, estab) pairs through std::sort otherwise
//         — and the sorted runs are run-length aggregated, summing run
//         lengths per (key, estab) pair.
//      3. Partitions concatenate in order, so the result is globally
//         key-sorted without a merge.
//
// Both paths read each group column's codes at their stored width (1, 2
// or 4 bytes, see Column), dispatching on the width once per column per
// chunk.
//
// Determinism contract: on either path the output depends only on the
// multiset of input rows — key-sorted cells, each with its
// establishment-sorted, distinct contributions and their summed counts —
// so it is bit-identical for every thread count, partition count and
// path. The release pipeline's cross-thread-count reproducibility
// guarantee and the exactness of the cube roll-ups (rollup.h) rely on
// this; see docs/ARCHITECTURE.md, "Contract 3".
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

/// \brief Which path a table scan takes (see the file comment).
enum class ScanPath {
  kDense,  ///< Establishment-ordered rows: dedup + one counting sort.
  kRadix,  ///< Run compression + partitioned radix sort.
};

/// The scan-path gate of GroupCountByEstablishment: kDense when
/// `estab_ids` is non-decreasing, has fewer than 2^32 rows, and
/// domain_size <= max(rows, 2^16) / workers (the resolved num_threads);
/// kRadix otherwise. Reads only its arguments — never an option, flag or
/// environment variable — and both paths return identical cells.
ScanPath ChooseScanPath(const std::vector<int64_t>& estab_ids,
                        uint64_t domain_size, int num_threads);

/// The dense path: groups `table` by `codec`'s columns with
/// per-establishment contributions, for establishment-ordered input.
/// Requires ChooseScanPath(estab_ids, codec.DomainSize(), num_threads) ==
/// ScanPath::kDense and estab_ids.size() == table.num_rows(). Returns
/// exactly AggregateByKeyAndEstab(table, codec, estab_ids, ...) for every
/// thread count.
std::vector<GroupedCell> GroupEstabOrdered(
    const Table& table, const GroupKeyCodec& codec,
    const std::vector<int64_t>& estab_ids, int num_threads);

/// The radix path: groups `table` by `codec`'s columns into key-sorted
/// cells with estab-sorted contribution lists, for rows in any order.
/// `codec` must have been created against `table`'s schema, and
/// estab_ids.size() must equal table.num_rows(). Splits the rows across
/// `num_threads` workers (<= 0 means hardware concurrency); deterministic
/// for every thread count.
std::vector<GroupedCell> AggregateByKeyAndEstab(
    const Table& table, const GroupKeyCodec& codec,
    const std::vector<int64_t>& estab_ids, int num_threads);

/// LSD radix sort of vals[0, n) by their low `used_bytes` bytes (the caller
/// knows how many carry bits), skipping every byte on which all values
/// agree; weights[i] travels with vals[i]. Below 128 values it sorts with
/// std::sort instead, so the order of equal values is unspecified: callers
/// may only depend on the sorted values and the multiset of weights each
/// value carries. The scratch vectors grow to n and are reused across
/// calls.
void RadixSortWithWeights(uint64_t* vals, int64_t* weights, size_t n,
                          int used_bytes, std::vector<uint64_t>& val_scratch,
                          std::vector<int64_t>& weight_scratch);

}  // namespace eep::table

#endif  // EEP_TABLE_PARTITIONED_GROUP_BY_H_
