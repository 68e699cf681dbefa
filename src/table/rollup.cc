#include "table/rollup.h"

#include <algorithm>
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

/// Concatenates the groupings of consecutive coarse-key ranges, one per
/// worker, into one, shifting each part's offsets past the contributions
/// of the parts before it. A lone part is moved without a copy; otherwise
/// each part is freed once copied.
GroupedCounts ConcatParts(std::vector<GroupedCounts> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  GroupedCounts out{parts[0].codec, {}, {}};
  size_t cells = 0;
  size_t items = 0;
  for (const GroupedCounts& part : parts) {
    cells += part.cells.size();
    items += part.contributions.size();
  }
  out.cells.reserve(cells);
  out.contributions.reserve(items);
  for (GroupedCounts& part : parts) {
    const size_t shift = out.contributions.size();
    for (GroupedCell cell : part.cells) {
      cell.begin += shift;
      cell.end += shift;
      out.cells.push_back(cell);
    }
    out.contributions.insert(out.contributions.end(),
                             part.contributions.begin(),
                             part.contributions.end());
    part.cells = {};
    part.contributions = {};
  }
  return out;
}

/// Low-order bytes a radix sort must read to order values in [0, max].
int SortBytes(uint64_t max) {
  int bytes = 0;
  while (bytes < 8 && (max >> (8 * bytes)) != 0) ++bytes;
  return bytes;
}

/// Appends the merge of two estab-sorted contribution lists to `out`,
/// summing the counts of equal establishment ids.
void MergeContributions(ContributionSpan a, ContributionSpan b,
                        std::vector<EstabContribution>* out) {
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
  out->insert(out->end(), a.begin() + i, a.end());
  out->insert(out->end(), b.begin() + j, b.end());
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
/// of one coarse key, into one cell appended to `out`, its contributions
/// written straight into out's array. Narrow runs merge their estab-sorted
/// contribution ranges pairwise, the last merge into `out`; a one-cell run
/// (the dominant case near the top of the lattice, and the whole pass for
/// an identity projection) is a copy. Wide runs gather their items and
/// radix-sort them by establishment id rebased to the run's minimum,
/// bounding the run at a few linear passes instead of Θ(k·m). Every
/// strategy sums the same integer multiset, so the threshold is invisible
/// in the result.
void MergeRun(const GroupedCounts& base, const int64_t* run, size_t k,
              uint64_t coarse_key, RunScratch* scratch, GroupedCounts* out) {
  const std::vector<GroupedCell>& cells = base.cells;
  std::vector<EstabContribution>& dst = out->contributions;
  GroupedCell cell;
  cell.key = coarse_key;
  cell.begin = dst.size();
  const GroupedCell& first = cells[static_cast<size_t>(run[0])];
  cell.count = first.count;
  if (k <= kMaxSequentialMergeCells) {
    ContributionSpan acc = base.ContributionsOf(first);
    if (k == 1) dst.insert(dst.end(), acc.begin(), acc.end());
    for (size_t r = 1; r < k; ++r) {
      const GroupedCell& next = cells[static_cast<size_t>(run[r])];
      cell.count += next.count;
      if (r + 1 == k) {
        MergeContributions(acc, base.ContributionsOf(next), &dst);
        break;
      }
      scratch->merged.clear();
      MergeContributions(acc, base.ContributionsOf(next), &scratch->merged);
      std::swap(scratch->acc, scratch->merged);
      acc = scratch->acc;
    }
    cell.end = dst.size();
    out->cells.push_back(cell);
    return;
  }
  // Cells are never empty and their contribution ranges are estab-sorted,
  // so the ranges' ends bound the run's ids.
  int64_t min_estab = base.contributions[first.begin].estab_id;
  int64_t max_estab = base.contributions[first.end - 1].estab_id;
  for (size_t r = 1; r < k; ++r) {
    const GroupedCell& next = cells[static_cast<size_t>(run[r])];
    cell.count += next.count;
    min_estab = std::min(min_estab, base.contributions[next.begin].estab_id);
    max_estab = std::max(max_estab, base.contributions[next.end - 1].estab_id);
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
         base.ContributionsOf(cells[static_cast<size_t>(run[r])])) {
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
    dst.push_back({static_cast<int64_t>(estabs[g] + base_estab), count});
    g = h;
  }
  cell.end = dst.size();
  out->cells.push_back(cell);
}

}  // namespace

Result<GroupedCounts> RollupGroupedCounts(const GroupedCounts& base,
                                          GroupKeyCodec coarse_codec,
                                          int num_threads) {
  EEP_ASSIGN_OR_RETURN(KeyProjection proj,
                       KeyProjection::Create(base.codec, coarse_codec));
  const auto& cells = base.cells;
  const size_t n = cells.size();
  if (n == 0) return GroupedCounts{std::move(coarse_codec), {}, {}};

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

  // Each worker merges its runs into its own part through one set of
  // scratch buffers it reuses for every run: nothing is allocated per
  // output cell. A run's input items bound its merged ones, so one
  // reservation keeps the part's array from regrowing.
  const int threads = std::min<int>(ResolveGroupByThreads(num_threads),
                                    static_cast<int>(n));
  const std::vector<size_t> bounds = RunAlignedBounds(keys, threads);
  std::vector<GroupedCounts> parts(static_cast<size_t>(threads),
                                   GroupedCounts{coarse_codec, {}, {}});
  RunOnWorkers(threads, [&](int w) {
    const size_t end = bounds[static_cast<size_t>(w) + 1];
    GroupedCounts& out = parts[static_cast<size_t>(w)];
    size_t items = 0;
    for (size_t i = bounds[static_cast<size_t>(w)]; i < end; ++i) {
      items += cells[static_cast<size_t>(order[i])].end -
               cells[static_cast<size_t>(order[i])].begin;
    }
    out.contributions.reserve(items);
    RunScratch scratch;
    size_t i = bounds[static_cast<size_t>(w)];
    while (i < end) {
      size_t j = i + 1;
      while (j < end && keys[j] == keys[i]) ++j;
      MergeRun(base, order.data() + i, j - i, keys[i], &scratch, &out);
      i = j;
    }
  });
  return ConcatParts(std::move(parts));
}

}  // namespace eep::table
