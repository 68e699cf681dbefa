#include "lodes/workload.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "lodes/attributes.h"
#include "table/rollup.h"

namespace eep::lodes {

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Union of the marginals' attributes restricted to `canonical`, in
/// canonical order.
std::vector<std::string> UnionInCanonicalOrder(
    const std::vector<std::string>& canonical,
    const std::vector<MarginalSpec>& marginals, bool workplace) {
  std::vector<std::string> result;
  for (const std::string& attr : canonical) {
    const bool used = std::any_of(
        marginals.begin(), marginals.end(), [&](const MarginalSpec& spec) {
          const auto& attrs =
              workplace ? spec.workplace_attrs : spec.worker_attrs;
          return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
        });
    if (used) result.push_back(attr);
  }
  return result;
}

std::string JoinColumns(const std::vector<std::string>& columns) {
  std::string out;
  for (const auto& c : columns) {
    if (!out.empty()) out += ",";
    out += c;
  }
  return out;
}

using table::IsColumnPrefix;

/// Union spec of a subset of the workload's marginals, attributes in
/// canonical order.
MarginalSpec UnionSpecOf(const std::vector<MarginalSpec>& marginals,
                         const std::vector<size_t>& members) {
  WorkloadSpec selected;
  selected.marginals.reserve(members.size());
  for (size_t m : members) selected.marginals.push_back(marginals[m]);
  return selected.FusedSpec();
}

/// Estimated item count (distinct (key, estab) pairs) of the grouping at
/// `union_spec`'s cross-classification, the input size of every roll-up
/// from it. Every establishment carries exactly ONE workplace-attribute
/// combination, so workplace attributes never multiply the pair count: the
/// grouping holds at most one item per establishment per worker-attribute
/// combination, and never more than one per row. min(rows,
/// estabs x worker_domain) matches the measured paper-scale extract within
/// ~15% across the whole lattice (see docs/BENCHMARKS.md) — and it is a
/// true UPPER bound (per establishment, distinct pairs are capped by both
/// its worker count and the worker domain), which is what makes the
/// planner's merges safe: a member whose roll-up is modeled cheaper than a
/// scan stays cheaper with the actual, smaller item count, so the serving
/// cache can never fall back to a per-marginal re-scan the plan did not
/// price in.
double EstimateRollupItems(const LodesDataset& data,
                           const MarginalSpec& union_spec) {
  double worker_domain = 1.0;
  if (!union_spec.worker_attrs.empty()) {
    auto codec = table::GroupKeyCodec::Create(data.worker_full().schema(),
                                              union_spec.worker_attrs);
    if (codec.ok()) {
      worker_domain = static_cast<double>(codec.value().DomainSize());
    }
  }
  const double rows = static_cast<double>(data.worker_full().num_rows());
  const double pairs =
      static_cast<double>(data.num_establishments()) * worker_domain;
  return std::min(rows, pairs);
}

/// Chooses the column ORDER of a cover group's base grouping: any order
/// answers every member by roll-up, but a member whose column list is a
/// literal prefix of the base order rolls up without sorting the base
/// cells. Candidates are the canonical union order plus,
/// for each member, that member's own columns followed by the remaining
/// union columns in canonical order; the candidate making the most members
/// prefixes wins (first candidate on ties, so the choice is deterministic
/// and degrades to the canonical order).
std::vector<std::string> ChooseBaseOrder(
    const std::vector<MarginalSpec>& marginals,
    const std::vector<size_t>& members, const MarginalSpec& union_spec) {
  const std::vector<std::string> canonical = union_spec.AllColumns();
  std::vector<std::vector<std::string>> candidates;
  candidates.push_back(canonical);
  for (size_t m : members) {
    std::vector<std::string> candidate = marginals[m].AllColumns();
    for (const std::string& column : canonical) {
      if (std::find(candidate.begin(), candidate.end(), column) ==
          candidate.end()) {
        candidate.push_back(column);
      }
    }
    candidates.push_back(std::move(candidate));
  }
  size_t best = 0;
  int best_score = -1;
  for (size_t c = 0; c < candidates.size(); ++c) {
    int score = 0;
    for (size_t m : members) {
      if (IsColumnPrefix(candidates[c], marginals[m].AllColumns())) ++score;
    }
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return candidates[best];
}

/// Modeled cost of fusing `members` as one cover group: one base scan plus
/// each member's roll-up from the base. A group containing a member whose
/// roll-up is modeled DEARER than its own scan is rejected outright
/// (+infinity) rather than priced at the scan: keeping such a member
/// fused would buy nothing, and rejecting it guarantees — because the
/// item estimate upper-bounds the actual count — that every fused member
/// really is served by roll-up, so full_table_scans == cover_groups holds
/// by construction on a fresh cache. Groups whose union key domain cannot
/// even be packed into a uint64 codec are rejected the same way, so the
/// planner degenerates to the independent per-marginal schedule instead
/// of committing to a base grouping the engine cannot build.
double ModeledGroupCost(const LodesDataset& data,
                        const std::vector<MarginalSpec>& marginals,
                        const std::vector<size_t>& members) {
  using CostModel = table::RollupCostModel;
  constexpr double kRejected = std::numeric_limits<double>::infinity();
  const MarginalSpec union_spec = UnionSpecOf(marginals, members);
  const std::vector<std::string> base =
      ChooseBaseOrder(marginals, members, union_spec);
  if (members.size() > 1 &&
      !table::GroupKeyCodec::Create(data.worker_full().schema(), base).ok()) {
    return kRejected;
  }
  const double items = EstimateRollupItems(data, union_spec);
  const double scan =
      CostModel::Scan(static_cast<size_t>(data.worker_full().num_rows()));
  double cost = scan;
  for (size_t m : members) {
    const std::vector<std::string> columns = marginals[m].AllColumns();
    if (columns == base) continue;  // the base grouping IS this marginal
    const double rollup =
        IsColumnPrefix(base, columns)
            ? CostModel::PrefixMerge(static_cast<size_t>(items))
            : CostModel::Resort(static_cast<size_t>(items));
    if (rollup > scan) return kRejected;
    cost += rollup;
  }
  return cost;
}

/// One planned cover group: its members (workload indices, ascending), the
/// union spec, and the base grouping's chosen column order — derived once
/// here and executed verbatim by ComputeWorkload, so the plan the cost
/// model priced is exactly the plan that runs.
struct CoverGroup {
  std::vector<size_t> members;
  MarginalSpec union_spec;
  std::vector<std::string> base_columns;
};

CoverGroup MakeGroup(const std::vector<MarginalSpec>& marginals,
                     std::vector<size_t> members) {
  CoverGroup group;
  group.union_spec = UnionSpecOf(marginals, members);
  group.base_columns = ChooseBaseOrder(marginals, members, group.union_spec);
  group.members = std::move(members);
  return group;
}

/// Greedy agglomerative cover-group planner: start from the independent
/// plan (one group per marginal) and merge the pair of groups with the
/// largest modeled saving until no merge saves anything. Merging is the
/// only way to share a scan, and a merge is taken only when it is modeled
/// strictly cheaper, so the final plan never costs more than the
/// independent schedule — the "fused always wins" guarantee. Groups keep
/// workload order (members sorted ascending), and ties resolve to the
/// first pair, so the plan is deterministic.
std::vector<CoverGroup> PlanCoverGroups(
    const LodesDataset& data, const std::vector<MarginalSpec>& marginals) {
  std::vector<CoverGroup> groups;
  std::vector<double> costs;
  for (size_t i = 0; i < marginals.size(); ++i) {
    groups.push_back(MakeGroup(marginals, {i}));
    costs.push_back(ModeledGroupCost(data, marginals, groups.back().members));
  }
  while (groups.size() > 1) {
    double best_saving = 0.0;
    size_t best_i = 0;
    size_t best_j = 0;
    double best_cost = 0.0;
    std::vector<size_t> best_merged;
    for (size_t i = 0; i + 1 < groups.size(); ++i) {
      for (size_t j = i + 1; j < groups.size(); ++j) {
        std::vector<size_t> merged = groups[i].members;
        merged.insert(merged.end(), groups[j].members.begin(),
                      groups[j].members.end());
        std::sort(merged.begin(), merged.end());
        const double cost = ModeledGroupCost(data, marginals, merged);
        const double saving = costs[i] + costs[j] - cost;
        if (saving > best_saving) {
          best_saving = saving;
          best_i = i;
          best_j = j;
          best_cost = cost;
          best_merged = std::move(merged);
        }
      }
    }
    if (best_saving <= 0.0) break;
    groups[best_i] = MakeGroup(marginals, std::move(best_merged));
    costs[best_i] = best_cost;
    groups.erase(groups.begin() + static_cast<ptrdiff_t>(best_j));
    costs.erase(costs.begin() + static_cast<ptrdiff_t>(best_j));
  }
  return groups;
}

}  // namespace

MarginalSpec WorkloadSpec::FusedSpec() const {
  MarginalSpec fused;
  fused.workplace_attrs = UnionInCanonicalOrder(
      {kColPlace, kColNaics, kColOwnership}, marginals, /*workplace=*/true);
  fused.worker_attrs = UnionInCanonicalOrder(
      {kColSex, kColAge, kColRace, kColEthnicity, kColEducation}, marginals,
      /*workplace=*/false);
  return fused;
}

Status WorkloadSpec::Validate() const {
  if (marginals.empty()) {
    return Status::InvalidArgument("workload needs at least one marginal");
  }
  for (const MarginalSpec& spec : marginals) {
    EEP_RETURN_NOT_OK(spec.Validate());
  }
  return Status::OK();
}

WorkloadSpec WorkloadSpec::PaperTabulations() {
  return {{MarginalSpec::EstablishmentMarginal(),
           MarginalSpec::WorkplaceBySexEducation()}};
}

Result<WorkloadSpec> WorkloadSpec::ByName(const std::string& names) {
  if (names == "paper") return PaperTabulations();
  WorkloadSpec workload;
  size_t begin = 0;
  while (begin <= names.size()) {
    const size_t comma = names.find(',', begin);
    const std::string name =
        names.substr(begin, comma == std::string::npos ? std::string::npos
                                                       : comma - begin);
    EEP_ASSIGN_OR_RETURN(MarginalSpec spec, MarginalSpec::ByName(name));
    workload.marginals.push_back(std::move(spec));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return workload;
}

Result<std::vector<MarginalQuery>> ComputeWorkload(
    const LodesDataset& data, const WorkloadSpec& workload, int num_threads,
    table::GroupByCache* cache, WorkloadComputeStats* stats) {
  EEP_RETURN_NOT_OK(workload.Validate());
  WorkloadComputeStats collected;
  // Without a caller-held cache, a call-local one still provides the
  // roll-up lattice (each marginal derives from the cheapest covering
  // grouping materialized so far); it just cannot carry groupings to the
  // next call.
  table::GroupByCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const table::GroupByOptions options{num_threads};

  // Split the workload into cover groups (one group = one shared base
  // grouping; the planner only merges marginals whose shared scan is
  // modeled cheaper than scanning separately) and seed the lattice with
  // each group's base: at most one full-table scan per group, zero when
  // the cache already covers it.
  const std::vector<CoverGroup> groups =
      PlanCoverGroups(data, workload.marginals);
  collected.cover_groups = static_cast<int>(groups.size());
  const auto base_start = std::chrono::steady_clock::now();
  for (const CoverGroup& group : groups) {
    table::GroupByCache::Outcome outcome;
    EEP_RETURN_NOT_OK(cache
                          ->GetOrCompute(data.worker_full(),
                                         group.base_columns, kColEstabId,
                                         options, &outcome)
                          .status());
    if (outcome == table::GroupByCache::Outcome::kScan) {
      ++collected.full_table_scans;
    }
  }
  collected.base_ms = MsSince(base_start);

  const auto derive_start = std::chrono::steady_clock::now();
  // Lattice order: walk the cover groups in plan order and, within each
  // group, materialize wide marginals first, so narrower ones can roll up
  // from an already-derived small grouping instead of the (much larger)
  // group base — e.g. place x naics x ownership derives from the
  // sex x education marginal's cells, not from the full-demographics base.
  // Derivation order is internal; results are emitted in workload order
  // and are order-independent anyway (every roll-up is exact).
  std::vector<size_t> derivation_order;
  derivation_order.reserve(workload.marginals.size());
  for (const CoverGroup& group : groups) {
    std::vector<size_t> group_order = group.members;
    std::stable_sort(group_order.begin(), group_order.end(),
                     [&](size_t a, size_t b) {
                       return workload.marginals[a].AllColumns().size() >
                              workload.marginals[b].AllColumns().size();
                     });
    derivation_order.insert(derivation_order.end(), group_order.begin(),
                            group_order.end());
  }

  std::vector<std::optional<MarginalQuery>> derived(
      workload.marginals.size());
  collected.sources.resize(workload.marginals.size());
  for (const size_t index : derivation_order) {
    const MarginalSpec& spec = workload.marginals[index];
    table::GroupByCache::Outcome marginal_outcome;
    std::vector<std::string> source_columns;
    EEP_ASSIGN_OR_RETURN(
        std::shared_ptr<const table::GroupedCounts> grouped,
        cache->GetOrCompute(data.worker_full(), spec.AllColumns(),
                            kColEstabId, options, &marginal_outcome,
                            &source_columns));
    switch (marginal_outcome) {
      case table::GroupByCache::Outcome::kExactHit:
        ++collected.exact_hits;
        collected.sources[index] = "exact-hit";
        break;
      case table::GroupByCache::Outcome::kPrefixMerge:
        ++collected.rollups;
        ++collected.prefix_merges;
        collected.sources[index] =
            JoinColumns(source_columns) + " (prefix merge)";
        break;
      case table::GroupByCache::Outcome::kRollup:
        ++collected.rollups;
        ++collected.parallel_rollups;
        collected.sources[index] = JoinColumns(source_columns);
        break;
      case table::GroupByCache::Outcome::kScan:
        // Unreachable on a fresh cache by construction: the planner only
        // fuses members whose roll-up is modeled cheaper than a scan, and
        // the item estimate upper-bounds the actual count, so the cache's
        // own cost ranking reaches the same conclusion. Counted honestly
        // anyway in case a caller-held cache holds surprising entries.
        ++collected.full_table_scans;
        collected.sources[index] = "table scan";
        break;
    }

    EEP_ASSIGN_OR_RETURN(
        MarginalQuery query,
        MarginalQuery::FromGrouped(data, spec, std::move(grouped)));
    derived[index].emplace(std::move(query));
  }
  std::vector<MarginalQuery> queries;
  queries.reserve(derived.size());
  for (auto& query : derived) queries.push_back(std::move(*query));
  collected.derive_ms = MsSince(derive_start);
  if (stats != nullptr) *stats = std::move(collected);
  return queries;
}

}  // namespace eep::lodes
