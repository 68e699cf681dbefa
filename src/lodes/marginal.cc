#include "lodes/marginal.h"

#include <algorithm>
#include <unordered_set>

namespace eep::lodes {

std::vector<std::string> MarginalSpec::AllColumns() const {
  std::vector<std::string> all = workplace_attrs;
  all.insert(all.end(), worker_attrs.begin(), worker_attrs.end());
  return all;
}

MarginalSpec MarginalSpec::EstablishmentMarginal() {
  return {{kColPlace, kColNaics, kColOwnership}, {}};
}

MarginalSpec MarginalSpec::WorkplaceBySexEducation() {
  return {{kColPlace, kColNaics, kColOwnership}, {kColSex, kColEducation}};
}

MarginalSpec MarginalSpec::FullDemographics() {
  return {{kColNaics, kColOwnership},
          {kColSex, kColAge, kColRace, kColEthnicity, kColEducation}};
}

MarginalSpec MarginalSpec::IndustryBySexEducation() {
  return {{kColNaics, kColOwnership}, {kColSex, kColEducation}};
}

Result<MarginalSpec> MarginalSpec::ByName(const std::string& name) {
  if (name == "establishment") return EstablishmentMarginal();
  if (name == "workplace_sexedu" || name == "sexedu") {
    return WorkplaceBySexEducation();
  }
  if (name == "full_demographics") return FullDemographics();
  if (name == "industry_sexedu") return IndustryBySexEducation();
  return Status::InvalidArgument(
      "unknown marginal \"" + name +
      "\" (use establishment|workplace_sexedu|industry_sexedu|"
      "full_demographics)");
}

Status MarginalSpec::Validate() const {
  if (workplace_attrs.empty() && worker_attrs.empty()) {
    return Status::InvalidArgument("marginal needs at least one attribute");
  }
  std::unordered_set<std::string> seen;
  for (const auto& col : workplace_attrs) {
    if (!AttributeDomains::IsWorkplaceAttribute(col)) {
      return Status::InvalidArgument("'" + col +
                                     "' is not a workplace attribute");
    }
    if (!seen.insert(col).second) {
      return Status::InvalidArgument("duplicate attribute " + col);
    }
  }
  for (const auto& col : worker_attrs) {
    if (!AttributeDomains::IsWorkerAttribute(col)) {
      return Status::InvalidArgument("'" + col +
                                     "' is not a worker attribute");
    }
    if (!seen.insert(col).second) {
      return Status::InvalidArgument("duplicate attribute " + col);
    }
  }
  return Status::OK();
}

Result<MarginalQuery> MarginalQuery::Compute(const LodesDataset& data,
                                             const MarginalSpec& spec,
                                             int num_threads) {
  EEP_RETURN_NOT_OK(spec.Validate());

  EEP_ASSIGN_OR_RETURN(
      table::GroupedCounts grouped,
      table::GroupCountByEstablishment(data.worker_full(), spec.AllColumns(),
                                       kColEstabId,
                                       table::GroupByOptions{num_threads}));
  return FromGrouped(data, spec,
                     std::make_shared<const table::GroupedCounts>(
                         std::move(grouped)));
}

Result<MarginalQuery> MarginalQuery::FromGrouped(
    const LodesDataset& data, const MarginalSpec& spec,
    std::shared_ptr<const table::GroupedCounts> grouped) {
  EEP_RETURN_NOT_OK(spec.Validate());
  if (grouped == nullptr) {
    return Status::InvalidArgument("FromGrouped needs a grouping");
  }
  if (grouped->codec.columns() != spec.AllColumns()) {
    return Status::InvalidArgument(
        "grouping columns do not match the marginal spec");
  }
  if (grouped->cells.size() >= kNoGroupedCell) {
    return Status::OutOfRange("grouping has too many cells to index");
  }
  // The released workplace combinations (public knowledge, Section 4.1).
  std::vector<uint64_t> wkeys = {0};
  if (!spec.workplace_attrs.empty()) {
    EEP_ASSIGN_OR_RETURN(wkeys, data.WorkplaceKeys(spec.workplace_attrs));
  }

  MarginalQuery query(&data, spec, std::move(grouped));

  // Worker-attribute domain size d (inner radices of the packed key).
  const auto& radices = query.grouped_->codec.radices();
  const size_t n_workplace = spec.workplace_attrs.size();
  int64_t worker_domain = 1;
  for (size_t i = n_workplace; i < radices.size(); ++i) {
    worker_domain *= radices[i];
  }
  query.worker_domain_size_ = worker_domain;

  // Index of `place` within the workplace attrs (for stratification). The
  // place code of a cell is a digit of the packed workplace key, so it is
  // extracted arithmetically: divide away the radices packed after it,
  // then reduce by its own radix.
  int place_slot = -1;
  for (size_t i = 0; i < spec.workplace_attrs.size(); ++i) {
    if (spec.workplace_attrs[i] == kColPlace) {
      place_slot = static_cast<int>(i);
    }
  }
  uint64_t place_div = 1;
  uint64_t place_radix = 1;
  if (place_slot >= 0) {
    for (size_t i = static_cast<size_t>(place_slot) + 1; i < n_workplace;
         ++i) {
      place_div *= radices[i];
    }
    place_radix = radices[static_cast<size_t>(place_slot)];
  }

  // Domain enumeration visits keys in increasing order (wkeys is sorted,
  // worker keys nest inside), and the grouped cells are key-sorted, so one
  // merge cursor replaces the per-cell binary search. Each cell keeps the
  // index the cursor found, so no reader searches again.
  const auto& gcells = query.grouped_->cells;
  size_t gi = 0;
  query.cells_.reserve(wkeys.size() * static_cast<size_t>(worker_domain));
  for (uint64_t wkey : wkeys) {
    const uint32_t place_code =
        place_slot >= 0
            ? static_cast<uint32_t>((wkey / place_div) % place_radix)
            : kNoPlace;
    for (int64_t ikey = 0; ikey < worker_domain; ++ikey) {
      MarginalCell cell;
      cell.key = wkey * static_cast<uint64_t>(worker_domain) +
                 static_cast<uint64_t>(ikey);
      while (gi < gcells.size() && gcells[gi].key < cell.key) ++gi;
      if (gi < gcells.size() && gcells[gi].key == cell.key) {
        const table::GroupedCell& g = gcells[gi];
        cell.count = g.count;
        cell.x_v = query.grouped_->MaxEstabContribution(g);
        cell.num_estabs = g.NumEstablishments();
        cell.grouped_cell = static_cast<uint32_t>(gi);
      }
      cell.place_code = place_code;
      query.cells_.push_back(cell);
    }
  }
  return query;
}

std::vector<double> MarginalQuery::TrueCounts() const {
  std::vector<double> out;
  out.reserve(cells_.size());
  for (const auto& c : cells_) out.push_back(static_cast<double>(c.count));
  return out;
}

Result<const MarginalCell*> MarginalQuery::FindCell(
    const std::map<std::string, std::string>& values) const {
  const auto columns = spec_.AllColumns();
  if (values.size() != columns.size()) {
    return Status::InvalidArgument(
        "FindCell needs exactly one value per query attribute");
  }
  std::vector<uint32_t> codes;
  codes.reserve(columns.size());
  for (const auto& column : columns) {
    auto it = values.find(column);
    if (it == values.end()) {
      return Status::InvalidArgument("missing value for attribute " +
                                     column);
    }
    EEP_ASSIGN_OR_RETURN(auto dict, data_->domains().DictFor(column));
    EEP_ASSIGN_OR_RETURN(uint32_t code, dict->CodeOf(it->second));
    codes.push_back(code);
  }
  const uint64_t key = grouped_->codec.Pack(codes);
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), key,
      [](const MarginalCell& cell, uint64_t k) { return cell.key < k; });
  if (it == cells_.end() || it->key != key) {
    return Status::NotFound(
        "cell not in the released domain (no establishment matches the "
        "workplace attributes)");
  }
  return &*it;
}

int64_t MarginalQuery::PlacePopulation(const MarginalCell& cell) const {
  if (cell.place_code == kNoPlace) return 0;
  auto pop = data_->PlacePopulation(cell.place_code);
  return pop.ok() ? pop.value() : 0;
}

}  // namespace eep::lodes
