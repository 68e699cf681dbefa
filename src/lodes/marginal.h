// Marginal queries over the WorkerFull relation (Definition 2.1 of the
// paper), with the cell-domain policy used by all release methods:
//
//  * Workplace-attribute combinations are released only for combinations
//    where at least one establishment exists — establishment existence,
//    sector, ownership and location are public knowledge (Section 4.1).
//    The dataset holds that domain (LodesDataset::WorkplaceKeys).
//  * Worker-attribute combinations are enumerated over their full cross
//    product for every such workplace combination, because a zero count of
//    (say) female PhDs at an establishment is confidential — the Sec. 5.2
//    re-identification attack exploits exactly those zeros.
#ifndef EEP_LODES_MARGINAL_H_
#define EEP_LODES_MARGINAL_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "lodes/dataset.h"
#include "table/group_by.h"

namespace eep::lodes {

/// \brief Which attributes a marginal query strata over.
struct MarginalSpec {
  /// Subset of {place, naics, ownership}.
  std::vector<std::string> workplace_attrs;
  /// Subset of {sex, age, race, ethnicity, education}.
  std::vector<std::string> worker_attrs;

  bool HasWorkerAttrs() const { return !worker_attrs.empty(); }

  /// All columns, workplace attributes first (the key-packing order).
  std::vector<std::string> AllColumns() const;

  /// Workload 1 / Ranking 1-2 spec: place x industry x ownership.
  static MarginalSpec EstablishmentMarginal();
  /// Workload 2/3 spec: place x industry x ownership x sex x education.
  static MarginalSpec WorkplaceBySexEducation();
  /// The "complex query" of the paper's conclusion: industry x ownership
  /// crossed with ALL five worker attributes (worker domain d = 768).
  static MarginalSpec FullDemographics();
  /// Statewide industry x ownership x sex x education — the place-free
  /// companion of WorkplaceBySexEducation (a QWI-style state tabulation).
  /// Its columns are a NON-prefix subset of the workplace_sexedu union, so
  /// in a fused workload it exercises the roll-up that sorts the base cells.
  static MarginalSpec IndustryBySexEducation();

  /// Looks up one of the named specs above from a CLI-friendly name:
  /// "establishment", "workplace_sexedu" (alias "sexedu"),
  /// "industry_sexedu" or "full_demographics". The single mapping shared
  /// by every bench and example flag parser.
  static Result<MarginalSpec> ByName(const std::string& name);

  Status Validate() const;
};

/// Sentinel for "query has no place column".
inline constexpr uint32_t kNoPlace = std::numeric_limits<uint32_t>::max();

/// \brief One cell of a computed marginal.
struct MarginalCell {
  /// Packed key in the combined codec (workplace attrs outermost).
  uint64_t key = 0;
  /// True employment count q_v(D).
  int64_t count = 0;
  /// x_v of Lemma 8.5: largest single-establishment contribution.
  int64_t x_v = 0;
  /// Establishments contributing at least one matching worker.
  int64_t num_estabs = 0;
  /// Dictionary code of the cell's place, or kNoPlace.
  uint32_t place_code = kNoPlace;
};

/// \brief A computed marginal: the released cell domain with true counts,
/// plus the per-establishment breakdown the SDL baseline and the smooth-
/// sensitivity mechanisms need.
class MarginalQuery {
 public:
  /// Executes the marginal over data.worker_full(). The group-by runs on
  /// the parallel columnar engine with `num_threads` workers (<= 0 means
  /// hardware concurrency); the result is bit-identical for every thread
  /// count, and the domain-enumeration pass is a merge join over the
  /// key-sorted grouped cells (no per-cell binary search or unpacking).
  static Result<MarginalQuery> Compute(const LodesDataset& data,
                                       const MarginalSpec& spec,
                                       int num_threads = 1);

  /// Builds the marginal from an already-computed grouping — the fused
  /// workload path (lodes/workload.h), where `grouped` is derived from one
  /// shared scan by cube roll-up instead of scanning per marginal.
  /// `grouped->codec` must be over exactly spec.AllColumns() (same order).
  /// The released workplace combinations come from
  /// data.WorkplaceKeys(spec.workplace_attrs); a spec without workplace
  /// attributes has the single combination 0. Output is bit-identical to
  /// Compute whenever `grouped` matches what Compute would derive itself —
  /// which the roll-up guarantees (see table/rollup.h).
  static Result<MarginalQuery> FromGrouped(
      const LodesDataset& data, const MarginalSpec& spec,
      std::shared_ptr<const table::GroupedCounts> grouped);

  const MarginalSpec& spec() const { return spec_; }
  const table::GroupKeyCodec& codec() const { return grouped_->codec; }

  /// Cells in key order, following the domain policy in the file header.
  const std::vector<MarginalCell>& cells() const { return cells_; }

  /// Raw non-empty groups with per-establishment contributions. May be
  /// shared with other marginals of a fused workload (see FromGrouped).
  const table::GroupedCounts& grouped() const { return *grouped_; }

  /// |dom(worker attrs)| — the d of the weak-privacy marginal surcharge.
  int64_t WorkerDomainSize() const { return worker_domain_size_; }

  /// True counts of all cells, in cells() order.
  std::vector<double> TrueCounts() const;

  /// Population of a cell's place; 0 when the query has no place column.
  int64_t PlacePopulation(const MarginalCell& cell) const;

  /// Looks up one cell by attribute values, e.g.
  /// {{"place","place_003"},{"naics","62"},{"ownership","Private"}} — the
  /// single-count query of Section 8's running example. Requires one value
  /// per query attribute; NotFound when the workplace combination is not
  /// in the released domain.
  Result<const MarginalCell*> FindCell(
      const std::map<std::string, std::string>& values) const;

 private:
  MarginalQuery(const LodesDataset* data, MarginalSpec spec,
                std::shared_ptr<const table::GroupedCounts> grouped)
      : data_(data), spec_(std::move(spec)), grouped_(std::move(grouped)) {}

  const LodesDataset* data_;
  MarginalSpec spec_;
  std::shared_ptr<const table::GroupedCounts> grouped_;
  std::vector<MarginalCell> cells_;
  int64_t worker_domain_size_ = 1;
};

}  // namespace eep::lodes

#endif  // EEP_LODES_MARGINAL_H_
