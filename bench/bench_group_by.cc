// Microbench for the columnar group-by engine: times
// GroupCountByEstablishment over a marginal's group columns across a
// worker-thread sweep, printing which scan path (dense or radix, see
// table/partitioned_group_by.h) each thread count took, then times the
// radix path on its own (AggregateByKeyAndEstab, one thread). Exits
// nonzero unless every thread count AND the radix path reproduce the
// 1-thread scan bit for bit; on the generator's establishment-ordered
// extract the 1-thread scan takes the dense path, so this gates the dense
// path against the radix path.
//
// Extra flags on top of bench_common's (including --paper for the 10.9M
// extract):
//   --marginal=NAME    establishment | workplace_sexedu | full_demographics
//                      (default establishment, the paper's 10.9M group-by)
//   --max_threads=N    highest thread count in the sweep (default 8)
//   --reps=N           timed repetitions per configuration, best-of
//                      (default 3)
//                      Values below 1 of either flag count as 1, so the
//                      bit-identity gate always compares something.
#include <chrono>

#include "bench_common.h"
#include "lodes/marginal.h"
#include "table/group_by.h"
#include "table/partitioned_group_by.h"

namespace {

using eep::table::GroupedCell;
using eep::table::ScanPath;

bool SameCells(const std::vector<GroupedCell>& a,
               const std::vector<GroupedCell>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].count != b[i].count) return false;
    if (a[i].contributions.size() != b[i].contributions.size()) return false;
    for (size_t c = 0; c < a[i].contributions.size(); ++c) {
      if (a[i].contributions[c].estab_id != b[i].contributions[c].estab_id ||
          a[i].contributions[c].count != b[i].contributions[c].count) {
        return false;
      }
    }
  }
  return true;
}

const char* PathName(ScanPath path) {
  return path == ScanPath::kDense ? "dense" : "radix";
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
  const uint64_t domain = reference.codec.DomainSize();
  const ScanPath reference_path = table::ChooseScanPath(*estab_ids, domain, 1);
  std::printf(
      "%zu non-empty cells over a %llu-cell domain; 1-thread scan path: "
      "%s\n\n",
      reference.cells.size(), static_cast<unsigned long long>(domain),
      PathName(reference_path));

  TextTable table(
      {"threads", "path", "best ms", "speedup", "Mrows/s", "identical"});
  bool all_identical = true;
  double engine_1t_ms = 0.0;
  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_group_by", data, setup);
  json["marginal"] = bench::BenchJson::Str(marginal);
  json["scan_path_1_thread"] = bench::BenchJson::Str(PathName(reference_path));
  bench::BenchJson& json_sweep = json["sweep"];
  json_sweep = bench::BenchJson::Array();
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  for (int threads : sweep) {
    const ScanPath path = table::ChooseScanPath(*estab_ids, domain, threads);
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
      if (!SameCells(got.cells, reference.cells)) identical = false;
    }
    if (threads == 1) engine_1t_ms = best_ms;
    if (!identical) all_identical = false;
    table.AddRow({std::to_string(threads), PathName(path),
                  FormatDouble(best_ms, 4),
                  FormatDouble(engine_1t_ms / best_ms, 3),
                  FormatDouble(static_cast<double>(jobs.num_rows()) /
                                   (best_ms * 1000.0),
                               3),
                  identical ? "yes" : "NO (BUG!)"});
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["path"] = bench::BenchJson::Str(PathName(path));
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
  auto codec = table::GroupKeyCodec::Create(jobs.schema(), columns).value();
  double radix_ms = 0.0;
  bool radix_identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto cells = table::AggregateByKeyAndEstab(jobs, codec, *estab_ids, 1);
    const double ms = bench::MsSince(start);
    if (rep == 0 || ms < radix_ms) radix_ms = ms;
    if (!SameCells(cells, reference.cells)) radix_identical = false;
  }
  std::printf(
      "\nradix path, 1 thread: %.2f ms; %s the %s scan's %zu cells\n",
      radix_ms, radix_identical ? "matches" : "DIFFERS FROM (BUG!)",
      PathName(reference_path), reference.cells.size());
  std::printf("groupings %s across all configurations and both paths\n",
              all_identical && radix_identical ? "BIT-IDENTICAL"
                                               : "DIFFER (BUG!)");
  json["scan_1_thread_ms"] = bench::BenchJson::Num(engine_1t_ms);
  bench::BenchJson& json_radix = json["radix_1_thread"];
  json_radix["total_ms"] = bench::BenchJson::Num(radix_ms);
  json_radix["identical"] = bench::BenchJson::Bool(radix_identical);
  json["bit_identical"] =
      bench::BenchJson::Bool(all_identical && radix_identical);
  bench::MaybeWriteJson(flags, json);
  return all_identical && radix_identical ? 0 : 1;
}
