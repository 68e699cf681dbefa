#include "table/partitioned_group_by.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

namespace eep::table {
namespace {

// Rows per partition the planner aims for: small enough that a partition's
// working set stays cache-resident while it is sorted, large enough that
// per-partition overhead amortizes.
constexpr size_t kTargetPartitionRows = size_t{1} << 16;
constexpr size_t kMaxPartitions = 1024;

// Runs fn(worker_index) on `threads` workers; the caller is worker 0.
template <typename Fn>
void RunWorkers(int threads, Fn&& fn) {
  if (threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads) - 1);
  for (int w = 1; w < threads; ++w) pool.emplace_back([&fn, w] { fn(w); });
  fn(0);
  for (auto& t : pool) t.join();
}

int BitWidth(uint64_t v) { return v == 0 ? 0 : 64 - __builtin_clzll(v); }

/// The group columns of `codec` in `table`, in key order.
std::vector<const Column*> GroupColumns(const Table& table,
                                        const GroupKeyCodec& codec) {
  std::vector<const Column*> columns;
  columns.reserve(codec.column_indices().size());
  for (size_t idx : codec.column_indices()) {
    columns.push_back(&table.column(idx));
  }
  return columns;
}

// Rows whose keys a scan packs at a time: the chunk's keys stay in L1
// between packing and use, so no n-sized key vector is written.
constexpr size_t kChunkRows = 1024;

/// keys[j] = packed key of row first + j, for j in [0, m): one contiguous
/// multiply-add sweep per group column over its codes at their stored
/// width (one width dispatch per column per call, none per row). Key must
/// hold every key of the codec's domain.
template <typename Key>
void PackKeys(const std::vector<const Column*>& columns,
              const std::vector<uint32_t>& radices, size_t first, size_t m,
              Key* keys) {
  columns[0]->VisitCodes([&](const auto& codes) {
    const auto* c0 = codes.data() + first;
    for (size_t j = 0; j < m; ++j) keys[j] = c0[j];
  });
  for (size_t c = 1; c < columns.size(); ++c) {
    const Key radix = radices[c];
    columns[c]->VisitCodes([&](const auto& codes) {
      const auto* cc = codes.data() + first;
      for (size_t j = 0; j < m; ++j) keys[j] = keys[j] * radix + cc[j];
    });
  }
}

struct PartitionPlan {
  int threads = 1;
  /// Keys are range-partitioned by their high bits: p = key >> shift.
  /// Every partition holds a contiguous key range, which is what makes
  /// concatenating sorted partitions globally sorted — and the shift makes
  /// the per-row partition function one instruction.
  int shift = 0;
  size_t num_partitions = 1;
  size_t block_size = 0;  // rows per worker block
};

// The plan affects only execution, never the result: the aggregate of each
// key range is a function of its row multiset, so any (threads, partitions)
// choice concatenates to the same output.
PartitionPlan PlanFor(size_t n, uint64_t domain, int num_threads) {
  PartitionPlan plan;
  plan.threads = ResolveGroupByThreads(num_threads);
  const size_t target =
      std::min(kMaxPartitions,
               std::max<size_t>(n / kTargetPartitionRows + 1,
                                static_cast<size_t>(plan.threads)));
  const int key_bits = BitWidth(domain - 1);
  const int partition_bits = BitWidth(target - 1);
  // Cap at 63: a 64-bit shift is UB, and for 64-bit key domains a shift of
  // 63 still leaves at most two partitions.
  plan.shift = std::min(63, std::max(0, key_bits - partition_bits));
  plan.num_partitions = ((domain - 1) >> plan.shift) + 1;
  plan.block_size = (n + static_cast<size_t>(plan.threads) - 1) /
                    static_cast<size_t>(plan.threads);
  return plan;
}

/// One worker block's run-compressed rows: consecutive rows with the same
/// (key, estab) collapse into one weighted item. Rows clustered by employer
/// share their workplace attributes, so a grouping over workplace columns
/// alone shrinks to about one item per establishment, while worker
/// attributes break most runs (2M rows -> 1.65M items for place, naics,
/// ownership, sex, education); in the worst case (fully shuffled rows) it
/// degrades to one item per row for the cost of one predictable compare
/// per row. A scan that passes the dense gate (ChooseScanPath) takes
/// GroupEstabOrdered instead.
/// Splitting a run at a block boundary only splits its weight, and the
/// per-partition aggregation sums weights per pair, so the final result is
/// independent of the block layout (= thread count).
struct CompressedBlock {
  std::vector<uint64_t> keys;
  std::vector<int64_t> estabs;
  std::vector<int64_t> weights;
  std::vector<size_t> hist;  // items per partition
  int64_t min_estab = std::numeric_limits<int64_t>::max();
  int64_t max_estab = std::numeric_limits<int64_t>::min();
};

// Sorted weighted packed (key << estab_bits | estab) items -> cells, one
// per key run, with contributions in estab order (inherited from the sort)
// and counts as weight sums.
void RlePacked(const uint64_t* vals, const int64_t* weights, size_t n,
               int estab_bits, std::vector<GroupedCell>* out) {
  const uint64_t mask =
      estab_bits == 0 ? 0 : (~uint64_t{0} >> (64 - estab_bits));
  size_t i = 0;
  while (i < n) {
    const uint64_t key = vals[i] >> estab_bits;
    GroupedCell cell;
    cell.key = key;
    while (i < n && (vals[i] >> estab_bits) == key) {
      const uint64_t packed = vals[i];
      int64_t weight = weights[i];
      size_t j = i + 1;
      while (j < n && vals[j] == packed) weight += weights[j++];
      cell.contributions.push_back(
          {static_cast<int64_t>(packed & mask), weight});
      cell.count += weight;
      i = j;
    }
    out->push_back(std::move(cell));
  }
}

struct KeyEstabWeight {
  uint64_t key;
  int64_t estab;
  int64_t weight;
};

void RleTriples(const KeyEstabWeight* v, size_t n,
                std::vector<GroupedCell>* out) {
  size_t i = 0;
  while (i < n) {
    const uint64_t key = v[i].key;
    GroupedCell cell;
    cell.key = key;
    while (i < n && v[i].key == key) {
      const int64_t estab = v[i].estab;
      int64_t weight = v[i].weight;
      size_t j = i + 1;
      while (j < n && v[j].key == key && v[j].estab == estab) {
        weight += v[j++].weight;
      }
      cell.contributions.push_back({estab, weight});
      cell.count += weight;
      i = j;
    }
    out->push_back(std::move(cell));
  }
}

std::vector<GroupedCell> ConcatPartitions(
    std::vector<std::vector<GroupedCell>> per_partition) {
  size_t total = 0;
  for (const auto& cells : per_partition) total += cells.size();
  std::vector<GroupedCell> result;
  result.reserve(total);
  for (auto& cells : per_partition) {
    std::move(cells.begin(), cells.end(), std::back_inserter(result));
  }
  return result;
}

// Converts per-block item histograms into scatter cursors (partition-major,
// block-minor) so every (block, partition) writes a disjoint slice of the
// scattered arrays. Returns partition start offsets (size P + 1).
std::vector<size_t> CursorsFromHists(std::vector<CompressedBlock>* blocks,
                                     size_t num_partitions) {
  std::vector<size_t> starts(num_partitions + 1, 0);
  size_t run = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    starts[p] = run;
    for (auto& block : *blocks) {
      const size_t count = block.hist[p];
      block.hist[p] = run;
      run += count;
    }
  }
  starts[num_partitions] = run;
  return starts;
}

}  // namespace

int ResolveGroupByThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void RunOnWorkers(int threads, const std::function<void(int)>& fn) {
  RunWorkers(threads, fn);
}

void RadixSortWithWeights(uint64_t* vals, int64_t* weights, size_t n,
                          int used_bytes, std::vector<uint64_t>& val_scratch,
                          std::vector<int64_t>& weight_scratch) {
  if (n < 128) {
    std::vector<std::pair<uint64_t, int64_t>> tmp(n);
    for (size_t i = 0; i < n; ++i) tmp[i] = {vals[i], weights[i]};
    std::sort(tmp.begin(), tmp.end(),
              [](const std::pair<uint64_t, int64_t>& a,
                 const std::pair<uint64_t, int64_t>& b) {
                return a.first < b.first;
              });
    for (size_t i = 0; i < n; ++i) {
      vals[i] = tmp[i].first;
      weights[i] = tmp[i].second;
    }
    return;
  }
  size_t hist[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = vals[i];
    for (int b = 0; b < used_bytes; ++b) ++hist[b][(x >> (8 * b)) & 0xff];
  }
  if (val_scratch.size() < n) val_scratch.resize(n);
  if (weight_scratch.size() < n) weight_scratch.resize(n);
  uint64_t* vsrc = vals;
  uint64_t* vdst = val_scratch.data();
  int64_t* wsrc = weights;
  int64_t* wdst = weight_scratch.data();
  for (int b = 0; b < used_bytes; ++b) {
    // vsrc holds a permutation of the original values, so testing vsrc[0]'s
    // bucket against n detects a constant byte.
    if (hist[b][(vsrc[0] >> (8 * b)) & 0xff] == n) continue;
    size_t offsets[256];
    size_t run = 0;
    for (int d = 0; d < 256; ++d) {
      offsets[d] = run;
      run += hist[b][d];
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = offsets[(vsrc[i] >> (8 * b)) & 0xff]++;
      vdst[slot] = vsrc[i];
      wdst[slot] = wsrc[i];
    }
    std::swap(vsrc, vdst);
    std::swap(wsrc, wdst);
  }
  if (vsrc != vals) {
    std::memcpy(vals, vsrc, n * sizeof(uint64_t));
    std::memcpy(weights, wsrc, n * sizeof(int64_t));
  }
}

std::vector<GroupedCell> AggregateByKeyAndEstab(
    const Table& table, const GroupKeyCodec& codec,
    const std::vector<int64_t>& estab_ids, int num_threads) {
  assert(estab_ids.size() == table.num_rows());
  const uint64_t domain_size = codec.DomainSize();
  const size_t n = table.num_rows();
  if (n == 0) return {};
  const PartitionPlan plan = PlanFor(n, domain_size, num_threads);
  const size_t P = plan.num_partitions;
  const std::vector<const Column*> columns = GroupColumns(table, codec);

  // Phase 1: per-block run compression + partition histogram + estab
  // range. Keys are packed a chunk at a time; a run may span chunks.
  std::vector<CompressedBlock> blocks(static_cast<size_t>(plan.threads));
  RunWorkers(plan.threads, [&](int w) {
    const size_t begin = static_cast<size_t>(w) * plan.block_size;
    const size_t end = std::min(n, begin + plan.block_size);
    CompressedBlock& block = blocks[static_cast<size_t>(w)];
    block.hist.assign(P, 0);
    uint64_t run_key = 0;
    int64_t run_estab = 0;
    int64_t run_rows = 0;
    auto close_run = [&] {
      block.keys.push_back(run_key);
      block.estabs.push_back(run_estab);
      block.weights.push_back(run_rows);
      ++block.hist[run_key >> plan.shift];
      block.min_estab = std::min(block.min_estab, run_estab);
      block.max_estab = std::max(block.max_estab, run_estab);
    };
    std::array<uint64_t, kChunkRows> keys{};
    for (size_t chunk = begin; chunk < end; chunk += kChunkRows) {
      const size_t m = std::min(kChunkRows, end - chunk);
      PackKeys(columns, codec.radices(), chunk, m, keys.data());
      for (size_t j = 0; j < m; ++j) {
        const int64_t estab = estab_ids[chunk + j];
        if (run_rows > 0 && keys[j] == run_key && estab == run_estab) {
          ++run_rows;
          continue;
        }
        if (run_rows > 0) close_run();
        run_key = keys[j];
        run_estab = estab;
        run_rows = 1;
      }
    }
    if (run_rows > 0) close_run();
  });
  int64_t min_estab = std::numeric_limits<int64_t>::max();
  int64_t max_estab = std::numeric_limits<int64_t>::min();
  for (const auto& block : blocks) {
    min_estab = std::min(min_estab, block.min_estab);
    max_estab = std::max(max_estab, block.max_estab);
  }
  const std::vector<size_t> starts = CursorsFromHists(&blocks, P);
  const size_t items = starts[P];

  // Non-negative establishment ids whose bits fit next to the key bits
  // pack into one radix-sortable uint64; anything else takes the 24-byte
  // comparison-sort fallback.
  const int key_bits = BitWidth(domain_size - 1);
  const int estab_bits =
      BitWidth(static_cast<uint64_t>(std::max<int64_t>(max_estab, 0)));
  const bool packable = min_estab >= 0 && key_bits + estab_bits <= 64;
  const int packed_bytes = (key_bits + estab_bits + 7) / 8;

  std::vector<std::vector<GroupedCell>> per_partition(P);
  std::atomic<size_t> next{0};

  if (packable) {
    // Phase 2: scatter weighted packed items into partition order.
    std::vector<uint64_t> vals(items);
    std::vector<int64_t> weights(items);
    // eep-lint: disjoint-writes -- CursorsFromHists hands every
    // (block, partition) pair a disjoint slice of vals/weights; worker w
    // advances only its own block's cursors.
    RunWorkers(plan.threads, [&](int w) {
      CompressedBlock& block = blocks[static_cast<size_t>(w)];
      for (size_t i = 0; i < block.keys.size(); ++i) {
        const uint64_t key = block.keys[i];
        const size_t slot = block.hist[key >> plan.shift]++;
        vals[slot] =
            (key << estab_bits) | static_cast<uint64_t>(block.estabs[i]);
        weights[slot] = block.weights[i];
      }
      block = CompressedBlock{};
    });
    // Phase 3: per-partition sort + weighted run-length aggregation.
    RunWorkers(plan.threads, [&](int) {
      std::vector<uint64_t> val_scratch;
      std::vector<int64_t> weight_scratch;
      for (size_t p = next.fetch_add(1); p < P; p = next.fetch_add(1)) {
        const size_t m = starts[p + 1] - starts[p];
        RadixSortWithWeights(vals.data() + starts[p],
                             weights.data() + starts[p], m, packed_bytes,
                             val_scratch, weight_scratch);
        RlePacked(vals.data() + starts[p], weights.data() + starts[p], m,
                  estab_bits, &per_partition[p]);
      }
    });
  } else {
    std::vector<KeyEstabWeight> scattered(items);
    // eep-lint: disjoint-writes -- same cursor argument as the packable
    // path: each (block, partition) slice of `scattered` is private.
    RunWorkers(plan.threads, [&](int w) {
      CompressedBlock& block = blocks[static_cast<size_t>(w)];
      for (size_t i = 0; i < block.keys.size(); ++i) {
        const size_t slot = block.hist[block.keys[i] >> plan.shift]++;
        scattered[slot] = {block.keys[i], block.estabs[i], block.weights[i]};
      }
      block = CompressedBlock{};
    });
    RunWorkers(plan.threads, [&](int) {
      for (size_t p = next.fetch_add(1); p < P; p = next.fetch_add(1)) {
        KeyEstabWeight* v = scattered.data() + starts[p];
        const size_t m = starts[p + 1] - starts[p];
        std::sort(v, v + m,
                  [](const KeyEstabWeight& a, const KeyEstabWeight& b) {
                    return a.key != b.key ? a.key < b.key
                                          : a.estab < b.estab;
                  });
        RleTriples(v, m, &per_partition[p]);
      }
    });
  }
  return ConcatPartitions(std::move(per_partition));
}

namespace {

/// One (key, establishment) pair of the dense path with its row count.
/// Row counts fit in uint32 because the gate caps the input below 2^32
/// rows.
struct DenseItem {
  int64_t estab;
  uint32_t key;
  uint32_t count;
};

/// One worker's share of the dense path: its distinct (key, estab) pairs in
/// row order, and one domain-sized table — first the dedup slots, then the
/// worker's items per key, then its write cursors into the sorted items.
struct DenseBlock {
  std::vector<DenseItem> items;
  std::vector<uint32_t> table;
};

// Table entries the dense gate allows whatever the row count: a 256 KiB
// table is cheap even next to a tiny input.
constexpr uint64_t kDenseMinTableEntries = uint64_t{1} << 16;

// Splits [0, n) into `threads` row blocks, each seam advanced to the next
// establishment boundary, so every establishment lies in one block. The
// blocks are in establishment order, so block-minor order within a key is
// establishment order.
std::vector<size_t> EstabAlignedBounds(const std::vector<int64_t>& estab_ids,
                                       int threads) {
  const size_t n = estab_ids.size();
  const size_t t = static_cast<size_t>(threads);
  std::vector<size_t> bounds(t + 1, n);
  bounds[0] = 0;
  for (size_t w = 1; w < t; ++w) {
    size_t pos = std::max(bounds[w - 1], n * w / t);
    if (pos > 0 && pos < n) {
      pos = static_cast<size_t>(
          std::upper_bound(estab_ids.begin() + static_cast<ptrdiff_t>(pos),
                           estab_ids.end(), estab_ids[pos - 1]) -
          estab_ids.begin());
    }
    bounds[w] = pos;
  }
  return bounds;
}

}  // namespace

ScanPath ChooseScanPath(const std::vector<int64_t>& estab_ids,
                        uint64_t domain_size, int num_threads) {
  const uint64_t rows = estab_ids.size();
  const auto workers =
      static_cast<uint64_t>(ResolveGroupByThreads(num_threads));
  const uint64_t table_entries = std::max(rows, kDenseMinTableEntries);
  if (rows >= std::numeric_limits<uint32_t>::max() ||
      domain_size > table_entries / workers) {
    return ScanPath::kRadix;
  }
  return std::is_sorted(estab_ids.begin(), estab_ids.end()) ? ScanPath::kDense
                                                            : ScanPath::kRadix;
}

std::vector<GroupedCell> GroupEstabOrdered(
    const Table& table, const GroupKeyCodec& codec,
    const std::vector<int64_t>& estab_ids, int num_threads) {
  assert(estab_ids.size() == table.num_rows());
  assert(ChooseScanPath(estab_ids, codec.DomainSize(), num_threads) ==
         ScanPath::kDense);
  const auto domain = static_cast<size_t>(codec.DomainSize());
  const int threads = ResolveGroupByThreads(num_threads);
  const std::vector<size_t> bounds = EstabAlignedBounds(estab_ids, threads);
  const std::vector<const Column*> columns = GroupColumns(table, codec);
  const int64_t* ids = estab_ids.data();

  // Phase 1: pack keys chunk by chunk and keep one item per distinct
  // (key, estab) pair. table[key] holds 1 + the index of the key's latest
  // item; since an establishment's rows are contiguous, that item belongs
  // to the current establishment exactly when it was appended at or after
  // the establishment's first item. Then count the worker's items per key.
  std::vector<DenseBlock> blocks(static_cast<size_t>(threads));
  RunWorkers(threads, [&](int w) {
    DenseBlock& block = blocks[static_cast<size_t>(w)];
    block.table.assign(domain, 0);
    uint32_t* slot = block.table.data();
    const size_t begin = bounds[static_cast<size_t>(w)];
    const size_t end = bounds[static_cast<size_t>(w) + 1];
    // A block has at most one item per row. Reserving that bound keeps
    // the append loop free of reallocations; the unused tail is never
    // written, so it costs address space, not resident memory.
    std::vector<DenseItem>& items = block.items;
    items.reserve(end - begin);
    std::array<uint32_t, kChunkRows> keys{};
    int64_t estab = begin < end ? ids[begin] : 0;
    uint32_t estab_first_item = 0;
    for (size_t chunk = begin; chunk < end; chunk += kChunkRows) {
      const size_t m = std::min(kChunkRows, end - chunk);
      PackKeys(columns, codec.radices(), chunk, m, keys.data());
      for (size_t j = 0; j < m; ++j) {
        if (ids[chunk + j] != estab) {
          estab = ids[chunk + j];
          estab_first_item = static_cast<uint32_t>(items.size());
        }
        const uint32_t key = keys[j];
        const uint32_t latest = slot[key];
        if (latest > estab_first_item) {
          ++items[latest - 1].count;
        } else {
          items.push_back({estab, key, 1});
          slot[key] = static_cast<uint32_t>(items.size());
        }
      }
    }
    std::fill(block.table.begin(), block.table.end(), 0);
    for (const DenseItem& item : items) ++slot[item.key];
  });

  // Phase 2: the counting sort's prefix sums, key-major and block-minor.
  // Each worker's count for a key becomes its first slot in the sorted
  // item array; each key with items becomes one cell.
  std::vector<uint32_t> cell_keys;
  std::vector<uint32_t> cell_starts;
  uint32_t sorted_items = 0;
  for (size_t key = 0; key < domain; ++key) {
    const uint32_t start = sorted_items;
    for (DenseBlock& block : blocks) {
      const uint32_t count = block.table[key];
      block.table[key] = sorted_items;
      sorted_items += count;
    }
    if (sorted_items != start) {
      cell_keys.push_back(static_cast<uint32_t>(key));
      cell_starts.push_back(start);
    }
  }
  cell_starts.push_back(sorted_items);

  // Phase 3: the counting sort's scatter. Establishments never straddle
  // blocks and a block's items are in row (= establishment) order, so
  // every key's run of the sorted array is establishment-sorted and
  // distinct.
  std::vector<EstabContribution> sorted(sorted_items);
  // eep-lint: disjoint-writes -- worker w writes, for each key, only the
  // slots [its cursor, the next worker's cursor) of sorted; phase 2's
  // prefix sums partition the array among (key, worker) pairs.
  RunWorkers(threads, [&](int w) {
    DenseBlock& block = blocks[static_cast<size_t>(w)];
    uint32_t* cursor = block.table.data();
    for (const DenseItem& item : block.items) {
      const uint32_t pos = cursor[item.key]++;
      sorted[pos] = {item.estab, item.count};
    }
    block = DenseBlock{};
  });

  // Phase 4: one cell per key run, its contribution list sized exactly.
  const size_t num_cells = cell_keys.size();
  std::vector<GroupedCell> cells(num_cells);
  const size_t per_worker = (num_cells + static_cast<size_t>(threads) - 1) /
                            static_cast<size_t>(threads);
  RunWorkers(threads, [&](int w) {
    const size_t begin = static_cast<size_t>(w) * per_worker;
    const size_t end = std::min(num_cells, begin + per_worker);
    for (size_t c = begin; c < end; ++c) {
      GroupedCell& cell = cells[c];
      cell.key = cell_keys[c];
      cell.contributions.assign(sorted.begin() + cell_starts[c],
                                sorted.begin() + cell_starts[c + 1]);
      for (const EstabContribution& contrib : cell.contributions) {
        cell.count += contrib.count;
      }
    }
  });
  return cells;
}

}  // namespace eep::table
