#include "table/rollup.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "table/partitioned_group_by.h"

namespace eep::table {

Result<KeyProjection> KeyProjection::Create(const GroupKeyCodec& base,
                                            const GroupKeyCodec& coarse) {
  const auto& base_columns = base.columns();
  const auto& base_radices = base.radices();
  KeyProjection proj;
  // Walk the coarse columns innermost first, so each digit's stride is the
  // product of the coarse radices already passed. A column joins the digit
  // of its inner neighbour when it sits right before that digit's columns
  // in the base.
  size_t digit_first = 0;  // Base position of the last digit's first column.
  for (size_t j = coarse.columns().size(); j-- > 0;) {
    const auto& name = coarse.columns()[j];
    const auto it = std::find(base_columns.begin(), base_columns.end(), name);
    if (it == base_columns.end()) {
      return Status::InvalidArgument("roll-up column '" + name +
                                     "' is not part of the base grouping");
    }
    const auto i = static_cast<size_t>(it - base_columns.begin());
    if (base_radices[i] != coarse.radices()[j]) {
      return Status::InvalidArgument(
          "roll-up column '" + name +
          "' has a different radix in the base grouping (different "
          "dictionary?)");
    }
    if (proj.digits_.empty() || i + 1 != digit_first) {
      Digit digit;
      digit.stride = proj.coarse_domain_size_;
      for (size_t k = i + 1; k < base_radices.size(); ++k) {
        digit.div *= base_radices[k];
      }
      proj.digits_.push_back(digit);
    }
    proj.digits_.back().radix *= base_radices[i];
    if (i == 0) proj.digits_.back().radix = 0;
    digit_first = i;
    proj.coarse_domain_size_ *= base_radices[i];
  }
  return proj;
}

bool IsColumnPrefix(const std::vector<std::string>& base,
                    const std::vector<std::string>& subset) {
  return subset.size() <= base.size() &&
         std::equal(subset.begin(), subset.end(), base.begin());
}

namespace {

/// Splits the ordered cells [0, n) into `threads` chunks whose boundaries
/// are advanced to the next coarse-key-run boundary, so no run straddles two
/// workers. The boundary positions depend only on the keys (never on the
/// thread that computes them), and every run is merged wholly inside one
/// chunk, so concatenating the per-chunk outputs is independent of the
/// chunk count.
std::vector<size_t> RunAlignedBounds(const std::vector<uint64_t>& keys,
                                     int threads) {
  const size_t n = keys.size();
  std::vector<size_t> bounds(static_cast<size_t>(threads) + 1, n);
  bounds[0] = 0;
  for (int w = 1; w < threads; ++w) {
    size_t pos = n * static_cast<size_t>(w) / static_cast<size_t>(threads);
    pos = std::max(pos, bounds[static_cast<size_t>(w) - 1]);
    while (pos > 0 && pos < n && keys[pos] == keys[pos - 1]) ++pos;
    bounds[static_cast<size_t>(w)] = pos;
  }
  return bounds;
}

/// Low-order bytes a radix sort must read to order values in [0, max].
int SortBytes(uint64_t max) {
  int bytes = 0;
  while (bytes < 8 && (max >> (8 * bytes)) != 0) ++bytes;
  return bytes;
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

/// One worker's reusable buffers for merging runs.
struct RunScratch {
  std::vector<EstabContribution> acc;
  std::vector<EstabContribution> merged;
  std::vector<uint64_t> estabs;
  std::vector<int64_t> counts;
  std::vector<uint64_t> estab_scratch;
  std::vector<int64_t> count_scratch;
};

/// Merges the run of base cells cells[run[0]], ..., cells[run[k - 1]], all
/// of one coarse key, into one cell. Narrow runs merge their estab-sorted
/// contribution lists pairwise; a one-cell run (the dominant case near the
/// top of the lattice, and the whole pass for an identity projection) is a
/// copy. Wide runs gather their items and radix-sort them by establishment
/// id rebased to the run's minimum, bounding the run at a few linear passes
/// instead of Θ(k·m). Every strategy sums the same integer multiset, so the
/// threshold is invisible in the result.
GroupedCell MergeRun(const std::vector<GroupedCell>& cells,
                     const int64_t* run, size_t k, uint64_t coarse_key,
                     RunScratch* scratch) {
  GroupedCell cell;
  cell.key = coarse_key;
  const GroupedCell& first = cells[static_cast<size_t>(run[0])];
  cell.count = first.count;
  if (k <= kMaxSequentialMergeCells) {
    std::vector<EstabContribution>& acc = scratch->acc;
    acc = first.contributions;
    for (size_t r = 1; r < k; ++r) {
      const GroupedCell& next = cells[static_cast<size_t>(run[r])];
      MergeContributions(acc, next.contributions, &scratch->merged);
      std::swap(acc, scratch->merged);
      cell.count += next.count;
    }
    cell.contributions = std::move(acc);
    return cell;
  }
  // Cells are never empty and their contribution lists are estab-sorted,
  // so the lists' ends bound the run's ids.
  int64_t min_estab = first.contributions.front().estab_id;
  int64_t max_estab = first.contributions.back().estab_id;
  for (size_t r = 1; r < k; ++r) {
    const GroupedCell& next = cells[static_cast<size_t>(run[r])];
    cell.count += next.count;
    min_estab = std::min(min_estab, next.contributions.front().estab_id);
    max_estab = std::max(max_estab, next.contributions.back().estab_id);
  }
  // Rebasing makes every id a non-negative offset below max - min + 1, so
  // the sort reads only the bytes that span carries.
  const auto base_estab = static_cast<uint64_t>(min_estab);
  std::vector<uint64_t>& estabs = scratch->estabs;
  std::vector<int64_t>& counts = scratch->counts;
  estabs.clear();
  counts.clear();
  for (size_t r = 0; r < k; ++r) {
    for (const EstabContribution& c :
         cells[static_cast<size_t>(run[r])].contributions) {
      estabs.push_back(static_cast<uint64_t>(c.estab_id) - base_estab);
      counts.push_back(c.count);
    }
  }
  RadixSortWithWeights(
      estabs.data(), counts.data(), estabs.size(),
      SortBytes(static_cast<uint64_t>(max_estab) - base_estab),
      scratch->estab_scratch, scratch->count_scratch);
  size_t g = 0;
  while (g < estabs.size()) {
    int64_t count = counts[g];
    size_t h = g + 1;
    while (h < estabs.size() && estabs[h] == estabs[g]) count += counts[h++];
    cell.contributions.push_back(
        {static_cast<int64_t>(estabs[g] + base_estab), count});
    g = h;
  }
  return cell;
}

}  // namespace

Result<GroupedCounts> RollupGroupedCounts(const GroupedCounts& base,
                                          GroupKeyCodec coarse_codec,
                                          int num_threads) {
  EEP_ASSIGN_OR_RETURN(KeyProjection proj,
                       KeyProjection::Create(base.codec, coarse_codec));
  GroupedCounts result{std::move(coarse_codec), {}};
  const auto& cells = base.cells;
  const size_t n = cells.size();
  if (n == 0) return result;

  // keys[i] is the coarse key of base cell order[i]. The base is key-sorted,
  // so a key-prefix projection (and any other whose digits happen to keep
  // the order) needs no sort.
  std::vector<uint64_t> keys(n);
  std::vector<int64_t> order(n);
  bool sorted = true;
  for (size_t c = 0; c < n; ++c) {
    keys[c] = proj.Project(cells[c].key);
    order[c] = static_cast<int64_t>(c);
    sorted = sorted && (c == 0 || keys[c - 1] <= keys[c]);
  }
  if (!sorted) {
    std::vector<uint64_t> key_scratch;
    std::vector<int64_t> order_scratch;
    RadixSortWithWeights(keys.data(), order.data(), n,
                         SortBytes(proj.coarse_domain_size() - 1), key_scratch,
                         order_scratch);
  }

  const int threads = std::min<int>(ResolveGroupByThreads(num_threads),
                                    static_cast<int>(n));
  const std::vector<size_t> bounds = RunAlignedBounds(keys, threads);
  std::vector<std::vector<GroupedCell>> per_worker(
      static_cast<size_t>(threads));
  RunOnWorkers(threads, [&](int w) {
    const size_t end = bounds[static_cast<size_t>(w) + 1];
    auto& out = per_worker[static_cast<size_t>(w)];
    RunScratch scratch;
    size_t i = bounds[static_cast<size_t>(w)];
    while (i < end) {
      size_t j = i + 1;
      while (j < end && keys[j] == keys[i]) ++j;
      out.push_back(MergeRun(cells, order.data() + i, j - i, keys[i],
                             &scratch));
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

}  // namespace eep::table
