// LodesDataset: the three normalized LODES tables plus the WorkerFull join
// (Section 3.1), the released workplace domain (Section 4.1) and the
// bipartite-graph view (Section 6).
#ifndef EEP_LODES_DATASET_H_
#define EEP_LODES_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "lodes/attributes.h"
#include "table/table.h"

namespace eep::lodes {

/// \brief The universal ER-EE relation: Worker, Workplace and Job tables,
/// their join (WorkerFull, one record per job carrying all attributes), the
/// public place metadata, and the released workplace domain.
class LodesDataset {
 public:
  /// Groups the Workplace table once for the released workplace domain,
  /// then builds WorkerFull with Table::HashJoin (Job ⋈ Worker on
  /// worker_id, then ⋈ Workplace on estab_id). WorkerFull keeps the job
  /// order and shares the Job columns' values; it also shares the Worker
  /// columns' values when workers are stored in job order, and copies
  /// only the gathered Workplace columns. Fails if a worker holds more
  /// than one job (the paper's assumption), or if any job references a
  /// missing worker or workplace.
  static Result<LodesDataset> Create(AttributeDomains domains,
                                     table::Table workers,
                                     table::Table workplaces,
                                     table::Table jobs);

  const AttributeDomains& domains() const { return domains_; }
  const std::vector<PlaceInfo>& places() const { return domains_.places(); }

  const table::Table& workers() const { return workers_; }
  const table::Table& workplaces() const { return workplaces_; }
  const table::Table& jobs() const { return jobs_; }
  /// The joined universal relation (one row per job, all attributes).
  const table::Table& worker_full() const { return worker_full_; }

  int64_t num_jobs() const { return static_cast<int64_t>(jobs_.num_rows()); }
  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.num_rows());
  }
  int64_t num_establishments() const {
    return static_cast<int64_t>(workplaces_.num_rows());
  }

  /// The released workplace domain over `workplace_attrs` (an ordered,
  /// non-empty list of workplace attributes): the sorted distinct keys,
  /// packed in that order, of the combinations at least one establishment
  /// has. Establishment existence, sector, ownership and location are
  /// public (Section 4.1), so a combination whose establishments have no
  /// jobs is still released. Projected from the canonical (place, naics,
  /// ownership) keys computed once at Create; no table is scanned.
  Result<std::vector<uint64_t>> WorkplaceKeys(
      const std::vector<std::string>& workplace_attrs) const;

  /// Population of the place with the given dictionary code.
  Result<int64_t> PlacePopulation(uint32_t place_code) const;

  /// Bipartite job graph (workers x establishments).
  Result<graph::BipartiteGraph> BuildGraph() const;

 private:
  LodesDataset(AttributeDomains domains, table::Table workers,
               table::Table workplaces, table::Table jobs,
               table::Table worker_full, std::vector<uint64_t> workplace_keys)
      : domains_(std::move(domains)),
        workers_(std::move(workers)),
        workplaces_(std::move(workplaces)),
        jobs_(std::move(jobs)),
        worker_full_(std::move(worker_full)),
        workplace_keys_(std::move(workplace_keys)) {}

  AttributeDomains domains_;
  table::Table workers_;
  table::Table workplaces_;
  table::Table jobs_;
  table::Table worker_full_;
  /// Sorted distinct Workplace keys over (place, naics, ownership).
  std::vector<uint64_t> workplace_keys_;
};

}  // namespace eep::lodes

#endif  // EEP_LODES_DATASET_H_
