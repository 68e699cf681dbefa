#include "table/rollup.h"

#include <algorithm>
#include <utility>

#include "table/partitioned_group_by.h"

namespace eep::table {

Result<KeyProjection> KeyProjection::Create(const GroupKeyCodec& base,
                                            const GroupKeyCodec& coarse) {
  KeyProjection proj;
  proj.digits_.resize(coarse.columns().size());
  // Coarse strides, innermost digit last (mixed-radix place values).
  uint64_t stride = 1;
  for (size_t j = coarse.columns().size(); j-- > 0;) {
    proj.digits_[j].stride = stride;
    stride *= coarse.radices()[j];
  }
  proj.coarse_domain_size_ = stride;
  for (size_t j = 0; j < coarse.columns().size(); ++j) {
    const auto& name = coarse.columns()[j];
    const auto& base_columns = base.columns();
    const auto it = std::find(base_columns.begin(), base_columns.end(), name);
    if (it == base_columns.end()) {
      return Status::InvalidArgument("roll-up column '" + name +
                                     "' is not part of the base grouping");
    }
    const size_t i = static_cast<size_t>(it - base_columns.begin());
    if (base.radices()[i] != coarse.radices()[j]) {
      return Status::InvalidArgument(
          "roll-up column '" + name +
          "' has a different radix in the base grouping (different "
          "dictionary?)");
    }
    proj.digits_[j].radix = base.radices()[i];
    uint64_t div = 1;
    for (size_t k = i + 1; k < base.radices().size(); ++k) {
      div *= base.radices()[k];
    }
    proj.digits_[j].div = div;
  }
  return proj;
}

bool IsKeyPrefix(const GroupKeyCodec& base, const GroupKeyCodec& coarse) {
  const size_t k = coarse.columns().size();
  if (k > base.columns().size()) return false;
  for (size_t i = 0; i < k; ++i) {
    if (base.columns()[i] != coarse.columns()[i] ||
        base.radices()[i] != coarse.radices()[i]) {
      return false;
    }
  }
  return true;
}

bool IsColumnPrefix(const std::vector<std::string>& base,
                    const std::vector<std::string>& subset) {
  return subset.size() <= base.size() &&
         std::equal(subset.begin(), subset.end(), base.begin());
}

namespace {

/// Mixed-radix place value of the suffix summed out by a prefix roll-up:
/// coarse_key = base_key / divisor. Fits in uint64 because the full base
/// domain does.
uint64_t SuffixDivisor(const GroupKeyCodec& base, size_t prefix_columns) {
  uint64_t div = 1;
  for (size_t i = prefix_columns; i < base.radices().size(); ++i) {
    div *= base.radices()[i];
  }
  return div;
}

/// Splits [0, n) into `threads` chunks whose boundaries are advanced to the
/// next coarse-key-run boundary, so no run straddles two workers. The
/// boundary positions depend only on the cell keys (never on the thread
/// that computes them), and every run is merged wholly inside one chunk, so
/// concatenating the per-chunk outputs is independent of the chunk count —
/// the determinism contract of the prefix-merge path.
std::vector<size_t> RunAlignedBounds(const std::vector<GroupedCell>& cells,
                                     uint64_t divisor, int threads) {
  const size_t n = cells.size();
  std::vector<size_t> bounds(static_cast<size_t>(threads) + 1, n);
  bounds[0] = 0;
  for (int w = 1; w < threads; ++w) {
    size_t pos = n * static_cast<size_t>(w) / static_cast<size_t>(threads);
    pos = std::max(pos, bounds[static_cast<size_t>(w) - 1]);
    while (pos > 0 && pos < n &&
           cells[pos].key / divisor == cells[pos - 1].key / divisor) {
      ++pos;
    }
    bounds[static_cast<size_t>(w)] = pos;
  }
  return bounds;
}

/// Merges two estab-sorted contribution lists, summing counts of equal
/// establishment ids, into `out` (cleared first).
void MergeContributions(const std::vector<EstabContribution>& a,
                        const std::vector<EstabContribution>& b,
                        std::vector<EstabContribution>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].estab_id < b[j].estab_id) {
      out->push_back(a[i++]);
    } else if (b[j].estab_id < a[i].estab_id) {
      out->push_back(b[j++]);
    } else {
      out->push_back({a[i].estab_id, a[i].count + b[j].count});
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
  out->insert(out->end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
}

/// Runs of more source cells than this gather their items and sort instead
/// of merging pairwise: sequential two-way merges touch the accumulated
/// list once per cell (Θ(k·m) for a run of k cells with m items), which
/// beats a sort only while k is small.
constexpr size_t kMaxSequentialMergeCells = 16;

/// The prefix-merge path: base cells are globally key-sorted and the coarse
/// key is base_key / divisor, so equal-coarse-key cells form contiguous
/// runs. Each run merges into ONE output cell — no projection buffer, no
/// global re-sort. Narrow runs (the common lattice case: the summed-out
/// suffix is a handful of combinations) merge their (estab-sorted)
/// contribution lists pairwise; wide runs gather their items and sort by
/// establishment, bounding the pass at O(m log m) per run instead of
/// Θ(k·m). Both run strategies sum the same integer multiset, so the
/// threshold — like the thread count — is invisible in the result.
GroupedCounts PrefixMergeRollup(const GroupedCounts& base,
                                GroupKeyCodec coarse_codec, int num_threads) {
  const uint64_t divisor =
      SuffixDivisor(base.codec, coarse_codec.columns().size());
  GroupedCounts result{std::move(coarse_codec), {}};
  const auto& cells = base.cells;
  if (cells.empty()) return result;
  const int threads = std::min<int>(ResolveGroupByThreads(num_threads),
                                    static_cast<int>(cells.size()));
  const std::vector<size_t> bounds = RunAlignedBounds(cells, divisor, threads);

  std::vector<std::vector<GroupedCell>> per_worker(
      static_cast<size_t>(threads));
  RunOnWorkers(threads, [&](int w) {
    const size_t begin = bounds[static_cast<size_t>(w)];
    const size_t end = bounds[static_cast<size_t>(w) + 1];
    auto& out = per_worker[static_cast<size_t>(w)];
    std::vector<EstabContribution> acc;
    std::vector<EstabContribution> merged;
    std::vector<EstabContribution> gathered;
    size_t i = begin;
    while (i < end) {
      const uint64_t coarse_key = cells[i].key / divisor;
      size_t j = i + 1;
      while (j < end && cells[j].key / divisor == coarse_key) ++j;
      GroupedCell cell;
      cell.key = coarse_key;
      if (j == i + 1) {
        // Single-cell run: the dominant case near the top of the lattice
        // (and the whole pass for an identity projection) — copy through.
        cell.count = cells[i].count;
        cell.contributions = cells[i].contributions;
      } else if (j - i <= kMaxSequentialMergeCells) {
        acc = cells[i].contributions;
        cell.count = cells[i].count;
        for (size_t c = i + 1; c < j; ++c) {
          MergeContributions(acc, cells[c].contributions, &merged);
          std::swap(acc, merged);
          cell.count += cells[c].count;
        }
        cell.contributions = std::move(acc);
      } else {
        // Wide run: gather + sort by establishment + weighted RLE. Summing
        // weights of equal estab ids is order-independent, so this agrees
        // bit for bit with the pairwise merge.
        gathered.clear();
        for (size_t c = i; c < j; ++c) {
          gathered.insert(gathered.end(), cells[c].contributions.begin(),
                          cells[c].contributions.end());
          cell.count += cells[c].count;
        }
        std::sort(gathered.begin(), gathered.end(),
                  [](const EstabContribution& a, const EstabContribution& b) {
                    return a.estab_id < b.estab_id;
                  });
        size_t g = 0;
        while (g < gathered.size()) {
          EstabContribution contrib = gathered[g];
          size_t h = g + 1;
          while (h < gathered.size() &&
                 gathered[h].estab_id == contrib.estab_id) {
            contrib.count += gathered[h++].count;
          }
          cell.contributions.push_back(contrib);
          g = h;
        }
      }
      out.push_back(std::move(cell));
      i = j;
    }
  });

  size_t total = 0;
  for (const auto& out : per_worker) total += out.size();
  result.cells.reserve(total);
  for (auto& out : per_worker) {
    std::move(out.begin(), out.end(), std::back_inserter(result.cells));
  }
  return result;
}

/// Item-balanced worker ranges over the base cells: worker w handles the
/// cell range whose flattened items start at roughly w/threads of the
/// total, so skewed contribution lists cannot serialize the flatten.
std::vector<size_t> ItemBalancedCellBounds(const std::vector<size_t>& offsets,
                                           int threads) {
  const size_t cells = offsets.size() - 1;
  const size_t items = offsets[cells];
  std::vector<size_t> bounds(static_cast<size_t>(threads) + 1, cells);
  bounds[0] = 0;
  for (int w = 1; w < threads; ++w) {
    const size_t target = items * static_cast<size_t>(w) /
                          static_cast<size_t>(threads);
    const auto it =
        std::lower_bound(offsets.begin(), offsets.end(), target);
    bounds[static_cast<size_t>(w)] =
        std::max(static_cast<size_t>(it - offsets.begin()),
                 bounds[static_cast<size_t>(w) - 1]);
  }
  return bounds;
}

}  // namespace

Result<GroupedCounts> RollupGroupedCounts(const GroupedCounts& base,
                                          GroupKeyCodec coarse_codec,
                                          int num_threads, RollupKind* kind) {
  EEP_ASSIGN_OR_RETURN(KeyProjection proj,
                       KeyProjection::Create(base.codec, coarse_codec));
  if (IsKeyPrefix(base.codec, coarse_codec)) {
    if (kind != nullptr) *kind = RollupKind::kPrefixMerge;
    return PrefixMergeRollup(base, std::move(coarse_codec), num_threads);
  }
  if (kind != nullptr) *kind = RollupKind::kResort;

  // Re-sort path: flatten + project the base items in parallel (the
  // per-cell offsets give every worker a disjoint write range), then
  // re-aggregate through the weighted partitioned engine.
  const size_t num_cells = base.cells.size();
  std::vector<size_t> offsets(num_cells + 1, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    offsets[c + 1] = offsets[c] + base.cells[c].contributions.size();
  }
  const size_t items = offsets[num_cells];
  std::vector<uint64_t> keys(items);
  std::vector<int64_t> estabs(items);
  std::vector<int64_t> weights(items);
  const int threads =
      std::min<int>(ResolveGroupByThreads(num_threads),
                    std::max<int>(1, static_cast<int>(num_cells)));
  const std::vector<size_t> bounds = ItemBalancedCellBounds(offsets, threads);
  // eep-lint: disjoint-writes -- worker w fills keys/estabs/weights at
  // slots [offsets[bounds[w]], offsets[bounds[w+1]]), a partition of the
  // flattened item range.
  RunOnWorkers(threads, [&](int w) {
    size_t slot = offsets[bounds[static_cast<size_t>(w)]];
    for (size_t c = bounds[static_cast<size_t>(w)];
         c < bounds[static_cast<size_t>(w) + 1]; ++c) {
      const GroupedCell& cell = base.cells[c];
      const uint64_t key = proj.Project(cell.key);
      for (const EstabContribution& contrib : cell.contributions) {
        keys[slot] = key;
        estabs[slot] = contrib.estab_id;
        weights[slot] = contrib.count;
        ++slot;
      }
    }
  });
  GroupedCounts result{std::move(coarse_codec), {}};
  result.cells =
      AggregateWeightedByKeyAndEstab(std::move(keys), estabs, weights,
                                     proj.coarse_domain_size(), num_threads);
  return result;
}

}  // namespace eep::table
