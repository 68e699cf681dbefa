#include "lodes/dataset.h"

#include <algorithm>

#include "table/group_by.h"
#include "table/rollup.h"

namespace eep::lodes {
namespace {

/// Key order of the stored workplace domain.
const std::vector<std::string>& CanonicalWorkplaceColumns() {
  static const std::vector<std::string> columns = {kColPlace, kColNaics,
                                                   kColOwnership};
  return columns;
}

/// Sorted distinct canonical keys of every establishment, jobs or not: the
/// grouping's cells are exactly those keys.
Result<std::vector<uint64_t>> DistinctWorkplaceKeys(
    const table::Table& workplaces) {
  EEP_ASSIGN_OR_RETURN(
      table::GroupedCounts grouped,
      table::GroupCountByEstablishment(workplaces, CanonicalWorkplaceColumns(),
                                       kColEstabId));
  std::vector<uint64_t> keys;
  keys.reserve(grouped.cells.size());
  for (const table::GroupedCell& cell : grouped.cells) {
    keys.push_back(cell.key);
  }
  return keys;
}

Status SecondJob(int64_t worker) {
  return Status::InvalidArgument("worker " + std::to_string(worker) +
                                 " holds more than one job");
}

}  // namespace

Result<LodesDataset> LodesDataset::Create(AttributeDomains domains,
                                          table::Table workers,
                                          table::Table workplaces,
                                          table::Table jobs) {
  // Grouped before the joins: grouping after them interleaved this
  // long-lived result and its temporaries with the join outputs in the
  // malloc heap, and later releases then peaked ~6% higher in resident
  // memory at 2M jobs.
  EEP_ASSIGN_OR_RETURN(std::vector<uint64_t> workplace_keys,
                       DistinctWorkplaceKeys(workplaces));

  // Every worker holds exactly one job (paper, Section 3.1). When Jobs and
  // Workers share one worker-id vector (as the generator builds them), the
  // join's index over the workers' ids below refuses a repeat already.
  EEP_ASSIGN_OR_RETURN(const table::Column* jw,
                       jobs.ColumnByName(kColWorkerId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* job_workers, jw->AsInt64());
  EEP_ASSIGN_OR_RETURN(const table::Column* ww,
                       workers.ColumnByName(kColWorkerId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* worker_ids, ww->AsInt64());
  if (job_workers != worker_ids) {
    EEP_RETURN_NOT_OK(
        table::KeyIndex::Build(*job_workers, SecondJob).status());
  }

  // Job ⋈ Worker ⋈ Workplace. HashJoin is an inner join with unique right
  // keys, so a row-count drop means a dangling foreign key. Every job
  // matches, so WorkerFull shares the jobs' columns; when the workers are
  // stored in job order, it shares theirs too.
  EEP_ASSIGN_OR_RETURN(
      table::Table with_worker,
      table::Table::HashJoin(jobs, kColWorkerId, workers, kColWorkerId));
  if (with_worker.num_rows() != jobs.num_rows()) {
    return Status::InvalidArgument("job references missing worker");
  }
  EEP_ASSIGN_OR_RETURN(table::Table worker_full,
                       table::Table::HashJoin(with_worker, kColEstabId,
                                              workplaces, kColEstabId));
  if (worker_full.num_rows() != jobs.num_rows()) {
    return Status::InvalidArgument("job references missing workplace");
  }

  return LodesDataset(std::move(domains), std::move(workers),
                      std::move(workplaces), std::move(jobs),
                      std::move(worker_full), std::move(workplace_keys));
}

Result<std::vector<uint64_t>> LodesDataset::WorkplaceKeys(
    const std::vector<std::string>& workplace_attrs) const {
  if (workplace_attrs.empty()) {
    return Status::InvalidArgument("WorkplaceKeys needs >= 1 attribute");
  }
  for (const std::string& attr : workplace_attrs) {
    if (!AttributeDomains::IsWorkplaceAttribute(attr)) {
      return Status::InvalidArgument("'" + attr +
                                     "' is not a workplace attribute");
    }
  }
  const table::Schema& schema = workplaces_.schema();
  EEP_ASSIGN_OR_RETURN(
      table::GroupKeyCodec canonical,
      table::GroupKeyCodec::Create(schema, CanonicalWorkplaceColumns()));
  EEP_ASSIGN_OR_RETURN(table::GroupKeyCodec coarse,
                       table::GroupKeyCodec::Create(schema, workplace_attrs));
  EEP_ASSIGN_OR_RETURN(table::KeyProjection projection,
                       table::KeyProjection::Create(canonical, coarse));
  std::vector<uint64_t> keys;
  keys.reserve(workplace_keys_.size());
  for (uint64_t key : workplace_keys_) {
    keys.push_back(projection.Project(key));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

Result<int64_t> LodesDataset::PlacePopulation(uint32_t place_code) const {
  if (place_code >= domains_.places().size()) {
    return Status::OutOfRange("place code out of range");
  }
  return domains_.places()[place_code].population;
}

Result<graph::BipartiteGraph> LodesDataset::BuildGraph() const {
  EEP_ASSIGN_OR_RETURN(const table::Column* wcol,
                       jobs_.ColumnByName(kColWorkerId));
  EEP_ASSIGN_OR_RETURN(const table::Column* ecol,
                       jobs_.ColumnByName(kColEstabId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* ws, wcol->AsInt64());
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* es, ecol->AsInt64());
  std::vector<graph::Edge> edges;
  edges.reserve(ws->size());
  for (size_t i = 0; i < ws->size(); ++i) {
    edges.push_back({(*ws)[i], (*es)[i]});
  }
  return graph::BipartiteGraph::Create(std::move(edges));
}

}  // namespace eep::lodes
