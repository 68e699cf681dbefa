// Microbench for the parallel columnar group-by engine: times
// GroupCountByEstablishment over a marginal's group columns across a
// worker-thread sweep and verifies every thread count reproduces the
// 1-thread grouping bit for bit. Also reports the engine's phase split
// (key materialization vs partition/sort/aggregate).
//
// Extra flags on top of bench_common's (including --paper for the 10.9M
// extract):
//   --marginal=NAME    establishment | workplace_sexedu | full_demographics
//                      (default establishment, the paper's 10.9M group-by)
//   --max_threads=N    highest thread count in the sweep (default 8)
//   --reps=N           timed repetitions per configuration, best-of
//                      (default 3)
#include <chrono>

#include "bench_common.h"
#include "lodes/marginal.h"
#include "table/group_by.h"
#include "table/partitioned_group_by.h"

namespace {

using eep::table::GroupedCell;

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

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  const bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  const std::string marginal = flags.GetString("marginal", "establishment");
  auto spec = lodes::MarginalSpec::ByName(marginal);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> columns = spec.value().AllColumns();
  const int max_threads = static_cast<int>(flags.GetInt("max_threads", 8));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const table::Table& jobs = data.worker_full();

  std::printf("=== Group-by engine — %s marginal (%zu group columns) ===\n",
              marginal.c_str(), columns.size());
  bench::PrintDatasetSummary(data, setup);

  // The 1-thread grouping is the reference every thread count must match.
  const table::GroupedCounts reference =
      table::GroupCountByEstablishment(jobs, columns, lodes::kColEstabId)
          .value();
  std::printf("%zu non-empty cells over a %llu-cell domain\n\n",
              reference.cells.size(),
              static_cast<unsigned long long>(reference.codec.DomainSize()));

  TextTable table({"threads", "best ms", "speedup", "Mrows/s", "identical"});
  bool all_identical = true;
  double engine_1t_ms = 0.0;
  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_group_by", data, setup);
  json["marginal"] = bench::BenchJson::Str(marginal);
  bench::BenchJson& json_sweep = json["sweep"];
  json_sweep = bench::BenchJson::Array();
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  for (int threads : sweep) {
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
    table.AddRow({std::to_string(threads), FormatDouble(best_ms, 2),
                  FormatDouble(engine_1t_ms / best_ms, 2),
                  FormatDouble(static_cast<double>(jobs.num_rows()) /
                                   (best_ms * 1000.0),
                               2),
                  identical ? "yes" : "NO (BUG!)"});
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["best_ms"] = bench::BenchJson::Num(best_ms);
    entry["speedup_vs_1_thread"] = bench::BenchJson::Num(
        threads == 1 ? 1.0 : engine_1t_ms / best_ms);
    entry["identical"] = bench::BenchJson::Bool(identical);
    json_sweep.Append(std::move(entry));
  }
  table.Print(std::cout);

  // Phase split of the single-threaded engine run: key materialization vs
  // partition + sort + run-length aggregation.
  auto codec = table::GroupKeyCodec::Create(jobs.schema(), columns).value();
  const auto mat_start = std::chrono::steady_clock::now();
  std::vector<uint64_t> keys = table::MaterializeGroupKeys(jobs, codec, 1);
  const double mat_ms = bench::MsSince(mat_start);
  const std::vector<int64_t>* estab_ids =
      jobs.ColumnByName(lodes::kColEstabId).value()->AsInt64().value();
  const auto agg_start = std::chrono::steady_clock::now();
  auto cells = table::AggregateByKeyAndEstab(std::move(keys), *estab_ids,
                                             codec.DomainSize(), 1);
  const double agg_ms = bench::MsSince(agg_start);
  std::printf(
      "\nsingle-thread phase split: materialize keys %.2f ms, "
      "partition+sort+aggregate %.2f ms (%zu cells)\n",
      mat_ms, agg_ms, cells.size());
  std::printf("groupings %s across all configurations\n",
              all_identical ? "BIT-IDENTICAL" : "DIFFER (BUG!)");
  json["phases_1_thread"]["materialize_ms"] = bench::BenchJson::Num(mat_ms);
  json["phases_1_thread"]["aggregate_ms"] = bench::BenchJson::Num(agg_ms);
  json["bit_identical"] = bench::BenchJson::Bool(all_identical);
  bench::MaybeWriteJson(flags, json);
  return all_identical ? 0 : 1;
}
