// Microbench for the columnar group-by engine: times
// GroupCountByEstablishment over a marginal's group columns across a
// worker-thread sweep, printing which scan path (dense or radix, see
// table/partitioned_group_by.h) each thread count took — dense when
// GroupEstabOrdered accepts the extract at that count — then times the
// radix path on its own (AggregateByKeyAndEstab, one thread). Then it
// times the fallback from the dense path to the radix path at one thread:
// GroupCountByEstablishment beside AggregateByKeyAndEstab on a shuffled
// copy of the scanned columns, and on the extract with its last id made
// smaller than the one before it, so the dense path reads every row
// before it refuses. Last it times two roll-ups of the scanned grouping
// across the sweep: the prefix roll-up to the marginal's workplace
// columns (the one a release runs to derive the establishment marginal
// from workplace_sexedu) and a non-prefix roll-up to its columns after
// the first, which sorts the base cells. Prints the groupings' bytes
// (cells plus contributions). Exits nonzero unless the dense path's
// grouping, every thread count's scan AND the radix path reproduce the
// 1-thread scan bit for bit, each fallback scan its radix path, and every
// roll-up its 1-thread result, and unless the dense path accepts the
// 1-thread scan of an establishment-ordered extract whose domain is
// within its bound. The generator's extract is establishment-ordered, so
// this gates the dense path against the radix path.
//
// Extra flags on top of bench_common's (including --paper for the 10.9M
// extract):
//   --marginal=NAME    establishment | workplace_sexedu | industry_sexedu |
//                      full_demographics
//                      (default establishment, the paper's 10.9M group-by)
//   --max_threads=N    highest thread count in the sweep (default 8)
//   --reps=N           timed repetitions per configuration, best-of
//                      (default 3)
//                      Values below 1 of either flag count as 1, so the
//                      bit-identity gate always compares something.
#include <algorithm>
#include <chrono>
#include <optional>

#include "bench_common.h"
#include "common/random.h"
#include "lodes/marginal.h"
#include "table/group_by.h"
#include "table/partitioned_group_by.h"
#include "table/rollup.h"

namespace {

using eep::table::GroupedCounts;

bool SameCells(const GroupedCounts& a, const GroupedCounts& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].key != b.cells[i].key ||
        a.cells[i].count != b.cells[i].count) {
      return false;
    }
    const eep::table::ContributionSpan ca = a.ContributionsOf(a.cells[i]);
    const eep::table::ContributionSpan cb = b.ContributionsOf(b.cells[i]);
    if (ca.size() != cb.size()) return false;
    for (size_t c = 0; c < ca.size(); ++c) {
      if (ca[c].estab_id != cb[c].estab_id || ca[c].count != cb[c].count) {
        return false;
      }
    }
  }
  return true;
}

/// Bytes of a grouping's cells plus its contribution array.
size_t GroupingBytes(const GroupedCounts& grouped) {
  return grouped.cells.size() * sizeof(eep::table::GroupedCell) +
         grouped.contributions.size() *
             sizeof(eep::table::EstabContribution);
}

double MiB(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

const char* PathName(bool dense) { return dense ? "dense" : "radix"; }

std::string JoinColumns(const std::vector<std::string>& columns) {
  std::string out;
  for (const std::string& column : columns) {
    out += (out.empty() ? "" : ",") + column;
  }
  return out;
}

/// Times RollupGroupedCounts from `base` to `columns` at every thread count
/// of `sweep` (best of `reps`), prints one row per count, and records the
/// sweep under json[key]. Returns false unless every run equals the
/// 1-thread roll-up.
bool TimeRollup(const GroupedCounts& base, const eep::table::Table& jobs,
                const std::vector<std::string>& columns, const char* label,
                const std::vector<int>& sweep, int reps,
                eep::bench::BenchJson& json, const std::string& key) {
  using namespace eep;
  const table::GroupKeyCodec codec =
      table::GroupKeyCodec::Create(jobs.schema(), columns).value();
  const GroupedCounts reference =
      table::RollupGroupedCounts(base, codec, 1).value();
  std::printf(
      "\n%s roll-up to {%s}: %zu cells, %zu contributions, %.2f MiB\n",
      label, JoinColumns(columns).c_str(), reference.cells.size(),
      reference.contributions.size(), MiB(GroupingBytes(reference)));
  TextTable table({"threads", "best ms", "speedup", "identical"});
  bench::BenchJson& entry = json[key];
  entry["columns"] = bench::BenchJson::Str(JoinColumns(columns));
  entry["cells"] =
      bench::BenchJson::Num(static_cast<double>(reference.cells.size()));
  entry["grouping_bytes"] =
      bench::BenchJson::Num(static_cast<double>(GroupingBytes(reference)));
  bench::BenchJson& entry_sweep = entry["sweep"];
  entry_sweep = bench::BenchJson::Array();
  bool all_identical = true;
  double one_thread_ms = 0.0;
  for (int threads : sweep) {
    double best_ms = 0.0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const GroupedCounts got =
          table::RollupGroupedCounts(base, codec, threads).value();
      const double ms = bench::MsSince(start);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      if (!SameCells(got, reference)) identical = false;
    }
    if (threads == 1) one_thread_ms = best_ms;
    if (!identical) all_identical = false;
    table.AddRow({std::to_string(threads), FormatDouble(best_ms, 4),
                  FormatDouble(one_thread_ms / best_ms, 3),
                  identical ? "yes" : "NO (BUG!)"});
    bench::BenchJson row;
    row["threads"] = bench::BenchJson::Num(threads);
    row["best_ms"] = bench::BenchJson::Num(best_ms);
    row["identical"] = bench::BenchJson::Bool(identical);
    entry_sweep.Append(std::move(row));
  }
  table.Print(std::cout);
  entry["identical"] = bench::BenchJson::Bool(all_identical);
  return all_identical;
}

/// `jobs`' group columns and establishment ids, with every row taken in
/// `order`, or with the ids replaced by `ids` when `order` is empty.
eep::table::Table ScanColumns(const eep::table::Table& jobs,
                              const eep::table::GroupKeyCodec& codec,
                              const std::vector<uint32_t>& order,
                              std::vector<int64_t> ids) {
  using namespace eep;
  const size_t estab = jobs.schema().IndexOf(lodes::kColEstabId).value();
  std::vector<table::Field> fields = {jobs.schema().field(estab)};
  std::vector<table::Column> columns = {
      order.empty() ? table::Column::OfInt64(std::move(ids))
                    : jobs.column(estab).TakeCopy(order)};
  for (size_t c : codec.column_indices()) {
    fields.push_back(jobs.schema().field(c));
    columns.push_back(order.empty() ? jobs.column(c)
                                    : jobs.column(c).TakeCopy(order));
  }
  return table::Table::Create(table::Schema::Create(std::move(fields)).value(),
                              std::move(columns))
      .value();
}

/// Times GroupCountByEstablishment and AggregateByKeyAndEstab at one
/// thread on `input` (best of `reps` each), prints one row, and records
/// it under json[key]. Returns false unless the two groupings are equal.
bool TimeFallback(const eep::table::Table& input,
                  const std::vector<std::string>& columns, const char* label,
                  int reps, eep::bench::BenchJson& json,
                  const std::string& key, eep::TextTable& table) {
  using namespace eep;
  const table::GroupKeyCodec codec =
      table::GroupKeyCodec::Create(input.schema(), columns).value();
  const std::vector<int64_t>& ids =
      *input.ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
  double scan_ms = 0.0;
  double radix_ms = 0.0;
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    const GroupedCounts scan =
        table::GroupCountByEstablishment(input, columns, lodes::kColEstabId)
            .value();
    const double scan_rep_ms = bench::MsSince(start);
    start = std::chrono::steady_clock::now();
    const GroupedCounts radix =
        table::AggregateByKeyAndEstab(input, codec, ids, 1);
    const double radix_rep_ms = bench::MsSince(start);
    if (rep == 0 || scan_rep_ms < scan_ms) scan_ms = scan_rep_ms;
    if (rep == 0 || radix_rep_ms < radix_ms) radix_ms = radix_rep_ms;
    if (!SameCells(scan, radix)) identical = false;
  }
  table.AddRow({label, FormatDouble(scan_ms, 4), FormatDouble(radix_ms, 4),
                FormatDouble(scan_ms - radix_ms, 4),
                identical ? "yes" : "NO (BUG!)"});
  bench::BenchJson& entry = json[key];
  entry["scan_ms"] = bench::BenchJson::Num(scan_ms);
  entry["radix_ms"] = bench::BenchJson::Num(radix_ms);
  entry["overhead_ms"] = bench::BenchJson::Num(scan_ms - radix_ms);
  entry["identical"] = bench::BenchJson::Bool(identical);
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  const std::string marginal = flags.GetString("marginal", "establishment");
  auto spec = lodes::MarginalSpec::ByName(marginal);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> columns = spec.value().AllColumns();
  const int max_threads =
      std::max(1, static_cast<int>(flags.GetInt("max_threads", 8)));
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 3)));
  const table::Table& jobs = data.worker_full();
  const std::vector<int64_t>* estab_ids =
      jobs.ColumnByName(lodes::kColEstabId).value()->AsInt64().value();

  std::printf("=== Group-by engine — %s marginal (%zu group columns) ===\n",
              marginal.c_str(), columns.size());
  bench::PrintDatasetSummary(data, setup);

  // The 1-thread scan is the reference every thread count and the radix
  // path must match.
  const table::GroupedCounts reference =
      table::GroupCountByEstablishment(jobs, columns, lodes::kColEstabId)
          .value();
  const table::GroupKeyCodec& codec = reference.codec;
  const uint64_t domain = codec.DomainSize();
  // Which path a thread count takes: dense when GroupEstabOrdered accepts
  // the extract, whose grouping must then match the reference too.
  bool dense_identical = true;
  auto dense_at = [&](int threads) {
    const std::optional<GroupedCounts> dense =
        table::GroupEstabOrdered(jobs, codec, *estab_ids, threads);
    if (dense && !SameCells(*dense, reference)) dense_identical = false;
    return dense.has_value();
  };
  const bool reference_dense = dense_at(1);
  // The dense path must accept the 1-thread scan of an establishment-
  // ordered extract whose domain is within its bound, max(rows, 2^16);
  // were it to refuse, the gates below would compare the radix path with
  // itself.
  const bool dense_expected =
      std::is_sorted(estab_ids->begin(), estab_ids->end()) &&
      domain <= std::max<uint64_t>(jobs.num_rows(), uint64_t{1} << 16);
  const bool dense_taken = reference_dense || !dense_expected;
  std::printf(
      "%zu non-empty cells over a %llu-cell domain; 1-thread scan path: "
      "%s%s\n%zu contributions; grouping %.2f MiB (cells + "
      "contributions)\n\n",
      reference.cells.size(), static_cast<unsigned long long>(domain),
      PathName(reference_dense),
      dense_taken ? ""
                  : " (BUG! the extract is establishment-ordered and its "
                    "domain fits)",
      reference.contributions.size(), MiB(GroupingBytes(reference)));

  TextTable table(
      {"threads", "path", "best ms", "speedup", "Mrows/s", "identical"});
  bool all_identical = true;
  double engine_1t_ms = 0.0;
  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_group_by", data, setup);
  json["marginal"] = bench::BenchJson::Str(marginal);
  json["scan_path_1_thread"] =
      bench::BenchJson::Str(PathName(reference_dense));
  json["dense_taken_when_expected"] = bench::BenchJson::Bool(dense_taken);
  json["grouping_bytes"] =
      bench::BenchJson::Num(static_cast<double>(GroupingBytes(reference)));
  bench::BenchJson& json_sweep = json["sweep"];
  json_sweep = bench::BenchJson::Array();
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  for (int threads : sweep) {
    const bool dense = threads == 1 ? reference_dense : dense_at(threads);
    double best_ms = 0.0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto got = table::GroupCountByEstablishment(
                     jobs, columns, lodes::kColEstabId,
                     table::GroupByOptions{threads})
                     .value();
      const double ms = bench::MsSince(start);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      if (!SameCells(got, reference)) identical = false;
    }
    if (threads == 1) engine_1t_ms = best_ms;
    if (!identical) all_identical = false;
    table.AddRow({std::to_string(threads), PathName(dense),
                  FormatDouble(best_ms, 4),
                  FormatDouble(engine_1t_ms / best_ms, 3),
                  FormatDouble(static_cast<double>(jobs.num_rows()) /
                                   (best_ms * 1000.0),
                               3),
                  identical ? "yes" : "NO (BUG!)"});
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["path"] = bench::BenchJson::Str(PathName(dense));
    entry["best_ms"] = bench::BenchJson::Num(best_ms);
    entry["speedup_vs_1_thread"] = bench::BenchJson::Num(
        threads == 1 ? 1.0 : engine_1t_ms / best_ms);
    entry["identical"] = bench::BenchJson::Bool(identical);
    json_sweep.Append(std::move(entry));
  }
  table.Print(std::cout);

  // The radix path on one thread, whatever path the scan took: chunked
  // key packing with run compression, then partition + sort + run-length
  // aggregation. Its cells must equal the scan's.
  double radix_ms = 0.0;
  bool radix_identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto radix = table::AggregateByKeyAndEstab(jobs, codec, *estab_ids, 1);
    const double ms = bench::MsSince(start);
    if (rep == 0 || ms < radix_ms) radix_ms = ms;
    if (!SameCells(radix, reference)) radix_identical = false;
  }
  std::printf(
      "\nradix path, 1 thread: %.2f ms; %s the %s scan's %zu cells\n",
      radix_ms, radix_identical ? "matches" : "DIFFERS FROM (BUG!)",
      PathName(reference_dense), reference.cells.size());
  json["scan_1_thread_ms"] = bench::BenchJson::Num(engine_1t_ms);
  json["dense_identical"] = bench::BenchJson::Bool(dense_identical);
  bench::BenchJson& json_radix = json["radix_1_thread"];
  json_radix["total_ms"] = bench::BenchJson::Num(radix_ms);
  json_radix["identical"] = bench::BenchJson::Bool(radix_identical);

  // What the dense path's attempt costs input it refuses, one input at a
  // time so only one copy of the scanned columns is alive.
  std::printf(
      "\nfallback to the radix path, 1 thread: the scan "
      "(GroupCountByEstablishment) beside the radix path alone\n");
  TextTable fallback({"input", "scan ms", "radix ms", "overhead ms",
                      "identical"});
  bench::BenchJson& json_fallback = json["fallback_1_thread"];
  bool fallback_identical = true;
  {
    Rng rng(setup.generator.seed + 1);
    const table::Table shuffled = ScanColumns(
        jobs, codec, rng.Permutation(static_cast<uint32_t>(jobs.num_rows())),
        {});
    fallback_identical &= TimeFallback(shuffled, columns, "shuffled", reps,
                                       json_fallback, "shuffled", fallback);
  }
  if (jobs.num_rows() >= 2) {
    std::vector<int64_t> ids = *estab_ids;
    ids.back() = ids[ids.size() - 2] - 1;
    const table::Table late = ScanColumns(jobs, codec, {}, std::move(ids));
    fallback_identical &=
        TimeFallback(late, columns, "last id decreases", reps, json_fallback,
                     "last_id_decreases", fallback);
  }
  fallback.Print(std::cout);

  // Roll-ups of the scanned grouping, each gated against its own 1-thread
  // result (rollup_test gates roll-ups against direct scans).
  std::vector<std::string> non_prefix(columns.begin() + 1, columns.end());
  const bool prefix_identical =
      TimeRollup(reference, jobs, spec.value().workplace_attrs, "prefix",
                 sweep, reps, json, "rollup_prefix");
  const bool non_prefix_identical =
      TimeRollup(reference, jobs, non_prefix, "non-prefix", sweep, reps, json,
                 "rollup_non_prefix");

  const bool identical = dense_taken && all_identical && dense_identical &&
                         radix_identical && fallback_identical &&
                         prefix_identical && non_prefix_identical;
  std::printf(
      "\ngroupings %s across all configurations, both paths, the "
      "fallbacks and both roll-ups\n",
      identical ? "BIT-IDENTICAL" : "DIFFER (BUG!)");
  json["bit_identical"] = bench::BenchJson::Bool(identical);
  bench::MaybeWriteJson(flags, json);
  return identical ? 0 : 1;
}
