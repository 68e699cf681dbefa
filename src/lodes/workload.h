// Fused workloads of marginal queries: the paper's release artifacts are
// SETS of marginals published together (Workloads 1-3, the ranking tasks),
// and computing each one independently re-scans the full WorkerFull
// relation per marginal. A WorkloadSpec names the set; ComputeWorkload
// answers all of it from ONE full-table scan:
//
//   1. Group by the finest common cross-classification (the union of every
//      marginal's attributes) through the parallel columnar engine.
//   2. Derive each marginal by data-cube roll-up (table/rollup.h): project
//      the packed keys onto the marginal's columns and re-aggregate by
//      merge. Roll-ups are exact integer re-aggregations, so every derived
//      marginal is bit-identical to MarginalQuery::Compute on the raw
//      table.
//   3. Plan the roll-up lattice through a grouped-cell cache
//      (table/group_by_cache.h): each marginal rolls up from the cheapest
//      already-materialized covering grouping — the fused base or an
//      earlier, smaller marginal — and a caller-held cache carries the
//      groupings across ComputeWorkload/RunReleaseWorkload calls, so
//      overlapping workloads skip the scan entirely.
//
// When the union cross-classification is too wide to pay for itself (all
// eight attributes at paper scale give the base ~one item per row, so
// per-marginal roll-ups cost more than the saved scans), the planner
// splits the workload into COVER GROUPS: a greedy agglomerative pass under
// the shared cost model (table::RollupCostModel, estimated roll-up item
// counts) merges marginals only while sharing a scan is modeled cheaper
// than scanning separately, so the plan degenerates to the independent
// one-scan-per-marginal schedule in the worst case and never does worse.
// Each group is fused independently: its base grouping's column order is
// chosen so the maximum number of member marginals are key PREFIXES of the
// base, whose roll-ups merge runs without sorting the base cells
// (table/rollup.h). Every path is an exact integer re-aggregation, so the
// planner's choices are invisible in the results.
//
// See docs/ARCHITECTURE.md ("Sorted-base roll-ups & cover groups") for the
// decision tree and how this composes with the release pipeline's
// noise-sharding determinism contract.
#ifndef EEP_LODES_WORKLOAD_H_
#define EEP_LODES_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "lodes/marginal.h"
#include "table/group_by_cache.h"

namespace eep::lodes {

/// \brief An ordered set of marginals released together.
struct WorkloadSpec {
  std::vector<MarginalSpec> marginals;

  /// The finest common cross-classification: the union of all attributes,
  /// in the canonical schema order (place, naics, ownership | sex, age,
  /// race, ethnicity, education). Canonical ordering makes two workloads
  /// over the same attribute set share one cache entry.
  MarginalSpec FusedSpec() const;

  Status Validate() const;

  /// The paper's released tabulations: the establishment marginal
  /// (Workload 1, Rankings 1-2) and the workplace x sex x education
  /// marginal (Workloads 2-3).
  static WorkloadSpec PaperTabulations();

  /// Comma-separated MarginalSpec::ByName names (e.g.
  /// "establishment,sexedu"), or "paper" for PaperTabulations(). The
  /// CLI-name mapping shared by benches and examples.
  static Result<WorkloadSpec> ByName(const std::string& names);
};

/// \brief How ComputeWorkload obtained each grouping, for benches and the
/// one-scan acceptance check.
struct WorkloadComputeStats {
  /// Full WorkerFull scans performed: at most one per cover group (0 for a
  /// group whose base grouping the cache already covers), never more than
  /// the number of marginals.
  int full_table_scans = 0;
  /// Marginals served by cube roll-up (the sum of the two fields below) /
  /// by an exact cache hit.
  int rollups = 0;
  int exact_hits = 0;
  /// Roll-ups whose columns are a prefix of their source grouping's, so
  /// the source cells merge in order with no sort.
  int prefix_merges = 0;
  /// Every other roll-up: the source cells are sorted by the projected key
  /// before their runs merge.
  int parallel_rollups = 0;
  /// Cover groups the planner split the workload into (1 when the whole
  /// union is tight; up to the marginal count for hostile unions).
  int cover_groups = 0;
  /// Wall time obtaining the cover-group base groupings (the scans, when
  /// they ran).
  double base_ms = 0.0;
  /// Wall time deriving all marginals from them (roll-up + domain
  /// enumeration).
  double derive_ms = 0.0;
  /// Per marginal: the columns of the grouping it was rolled up from (with
  /// a " (prefix merge)" marker for the merge path), or "exact-hit" when
  /// its grouping was already materialized.
  std::vector<std::string> sources;
};

/// Computes every marginal of `workload` over `data` with at most one
/// WorkerFull scan per planned cover group (zero for groups `cache`
/// already covers) — one scan total when the workload's union is tight,
/// never more scans than the independent per-marginal path. Results are
/// returned in workload order and are bit-identical to calling
/// MarginalQuery::Compute per spec for EVERY planner decision (prefix or
/// non-prefix roll-up, cover-group split, scan). `cache`, when
/// non-null, must be dedicated to `data`'s WorkerFull table and makes the
/// group base groupings — and every derived marginal — reusable by later
/// calls; when null, a call-local cache provides the roll-up lattice and
/// is discarded.
Result<std::vector<MarginalQuery>> ComputeWorkload(
    const LodesDataset& data, const WorkloadSpec& workload,
    int num_threads = 1, table::GroupByCache* cache = nullptr,
    WorkloadComputeStats* stats = nullptr);

}  // namespace eep::lodes

#endif  // EEP_LODES_WORKLOAD_H_
