// Fused workload release bench: times RunReleaseWorkload (shared scans +
// cube roll-ups + cover-group planning, see lodes/workload.h) against the
// independent path (each marginal released as its own one-marginal
// workload, with its own full-table group-by), checks that every released
// table is bit-identical between the two paths at every thread count,
// that the fused path performed EXACTLY ONE full-table group-by PER COVER
// GROUP — never more than the marginal count; the phase stats prove it,
// along with how many marginals were served by prefix roll-ups (no sort)
// vs other roll-ups (the base cells sorted first) — and that a
// cache-warmed rerun performs zero scans.
//
// Extra flags on top of bench_common's (including --paper for the 10.9M
// extract):
//   --workload=NAME    paper | comma-separated marginal names
//                      (establishment|workplace_sexedu|industry_sexedu|
//                      full_demographics); default paper — the
//                      establishment and workplace x sex x education
//                      tabulations released together
//   --mechanism=NAME   log_laplace | smooth_laplace | smooth_gamma |
//                      edge_laplace | geometric (default smooth_laplace)
//   --max_threads=N    highest thread count in the sweep (default 8)
//   --reps=N           timed repetitions per configuration, best-of
//                      (default 3)
//                      Values below 1 of either flag count as 1, so the
//                      bit-identity and scan-count checks always run.
//   --shard=N          cells per shard (default 1024)
#include <chrono>

#include "bench_common.h"
#include "release/pipeline.h"

namespace {

size_t HashTables(const std::vector<eep::release::ReleasedTable>& tables) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const auto& table : tables) {
    for (const auto& row : table.rows) {
      for (const auto& cell : row) {
        for (char c : cell) {
          h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
        }
        h = (h ^ '|') * 0x100000001b3ULL;
      }
      h = (h ^ '\n') * 0x100000001b3ULL;
    }
    h = (h ^ '#') * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  const std::string workload_name = flags.GetString("workload", "paper");
  auto workload = lodes::WorkloadSpec::ByName(workload_name);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  auto kind =
      eval::MechanismKindByName(flags.GetString("mechanism", "smooth_laplace"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }

  release::WorkloadReleaseConfig config;
  config.workload = std::move(workload).value();
  config.mechanism = kind.value();
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  config.shard_size = static_cast<int>(flags.GetInt("shard", 1024));
  const int max_threads =
      std::max(1, static_cast<int>(flags.GetInt("max_threads", 8)));
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 3)));
  const uint64_t noise_seed = setup.generator.seed ^ 0x3A7Fu;
  const size_t num_marginals = config.workload.marginals.size();

  std::printf("=== Fused workload release — %s (%zu marginals), %s ===\n",
              workload_name.c_str(), num_marginals,
              eval::MechanismKindName(config.mechanism));
  bench::PrintDatasetSummary(data, setup);

  // --- Independent baseline: one release (and one scan) per marginal. ----
  double independent_ms = 0.0;
  double independent_group_by_ms = 0.0;
  size_t independent_hash = 0;
  size_t total_cells = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(noise_seed);
    double group_by_ms = 0.0;
    std::vector<release::ReleasedTable> tables;
    const auto start = std::chrono::steady_clock::now();
    release::WorkloadReleaseConfig single = config;
    single.num_threads = 1;
    for (const lodes::MarginalSpec& spec : config.workload.marginals) {
      single.workload = {{spec}};
      release::WorkloadReleaseStats stats;
      auto released = release::RunReleaseWorkload(data, single, nullptr, rng,
                                                  nullptr, &stats);
      if (!released.ok()) {
        std::fprintf(stderr, "independent release failed: %s\n",
                     released.status().ToString().c_str());
        return 1;
      }
      group_by_ms += stats.compute.base_ms + stats.compute.derive_ms;
      tables.push_back(std::move(released).value()[0]);
    }
    const double ms = bench::MsSince(start);
    if (rep == 0 || ms < independent_ms) {
      independent_ms = ms;
      independent_group_by_ms = group_by_ms;
    }
    independent_hash = HashTables(tables);
    total_cells = 0;
    for (const auto& table : tables) total_cells += table.rows.size();
  }

  // --- Fused path across thread counts, checked against the baseline. ----
  std::printf("%zu released cells; independent path: %s full-table scans\n\n",
              total_cells, std::to_string(num_marginals).c_str());
  TextTable table({"path", "threads", "best ms", "speedup", "full scans",
                   "rows hash"});
  {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016zx", independent_hash);
    table.AddRow({"independent", "1", FormatDouble(independent_ms, 2), "1.00",
                  std::to_string(num_marginals), hash_hex});
  }

  bool ok = true;
  lodes::WorkloadComputeStats fused_compute;
  release::WorkloadReleaseStats fused_stats;
  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_workload_release", data, setup);
  json["workload"] = bench::BenchJson::Str(workload_name);
  json["marginals"] = bench::BenchJson::Num(double(num_marginals));
  json["released_cells"] = bench::BenchJson::Num(double(total_cells));
  json["independent"]["best_ms"] = bench::BenchJson::Num(independent_ms);
  json["independent"]["group_by_ms"] =
      bench::BenchJson::Num(independent_group_by_ms);
  json["independent"]["full_table_scans"] =
      bench::BenchJson::Num(double(num_marginals));
  bench::BenchJson& json_sweep = json["fused_sweep"];
  json_sweep = bench::BenchJson::Array();
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  double fused_1t_ms = 0.0;
  for (int threads : sweep) {
    config.num_threads = threads;
    double best_ms = 0.0;
    size_t hash = 0;
    int scans = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(noise_seed);
      release::WorkloadReleaseStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto released = release::RunReleaseWorkload(data, config, nullptr, rng,
                                                  nullptr, &stats);
      const double ms = bench::MsSince(start);
      if (!released.ok()) {
        std::fprintf(stderr, "fused release failed: %s\n",
                     released.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < best_ms) best_ms = ms;
      hash = HashTables(released.value());
      scans = stats.compute.full_table_scans;
      if (threads == 1) {
        fused_compute = stats.compute;
        fused_stats = stats;
        fused_1t_ms = best_ms;
      }
      // The proof obligation: at most one scan per planned cover group and
      // never more scans than the independent path. Fewer than one per
      // group is fine — the cache may serve a later group's base by
      // roll-up from an earlier group's wider base, which only saves work.
      if (stats.compute.full_table_scans > stats.compute.cover_groups ||
          stats.compute.full_table_scans > static_cast<int>(num_marginals)) {
        std::fprintf(
            stderr,
            "BUG: fused path ran %d full-table scans for %d cover groups "
            "(threads=%d)\n",
            stats.compute.full_table_scans, stats.compute.cover_groups,
            threads);
        ok = false;
      }
    }
    if (hash != independent_hash) ok = false;
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016zx", hash);
    table.AddRow({"fused", std::to_string(threads), FormatDouble(best_ms, 2),
                  FormatDouble(independent_ms / best_ms, 2),
                  std::to_string(scans), hash_hex});
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["best_ms"] = bench::BenchJson::Num(best_ms);
    entry["speedup_vs_independent"] =
        bench::BenchJson::Num(independent_ms / best_ms);
    entry["speedup_vs_1_thread"] =
        bench::BenchJson::Num(threads == 1 ? 1.0 : fused_1t_ms / best_ms);
    entry["full_table_scans"] = bench::BenchJson::Num(scans);
    entry["identical"] = bench::BenchJson::Bool(hash == independent_hash);
    json_sweep.Append(std::move(entry));
  }

  // --- Cache-warmed rerun: the scan disappears entirely. -----------------
  {
    config.num_threads = 1;
    table::GroupByCache cache;
    Rng warm_rng(noise_seed);
    auto warm = release::RunReleaseWorkload(data, config, nullptr, warm_rng,
                                            &cache);
    if (!warm.ok()) {
      std::fprintf(stderr, "cache warm-up failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    double best_ms = 0.0;
    size_t hash = 0;
    int scans = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(noise_seed);
      release::WorkloadReleaseStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto released = release::RunReleaseWorkload(data, config, nullptr, rng,
                                                  &cache, &stats);
      const double ms = bench::MsSince(start);
      if (!released.ok()) {
        std::fprintf(stderr, "cached release failed: %s\n",
                     released.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < best_ms) best_ms = ms;
      hash = HashTables(released.value());
      scans = stats.compute.full_table_scans;
    }
    if (hash != independent_hash || scans != 0) ok = false;
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016zx", hash);
    table.AddRow({"fused+cache", "1", FormatDouble(best_ms, 2),
                  FormatDouble(independent_ms / best_ms, 2),
                  std::to_string(scans), hash_hex});
    json["cache_warmed"]["best_ms"] = bench::BenchJson::Num(best_ms);
    json["cache_warmed"]["full_table_scans"] = bench::BenchJson::Num(scans);
    json["cache_warmed"]["speedup_vs_independent"] =
        bench::BenchJson::Num(independent_ms / best_ms);
  }
  table.Print(std::cout);
  std::printf("\nreleased tables %s between the independent and fused paths\n",
              ok ? "BIT-IDENTICAL" : "DIFFER OR SCAN COUNT WRONG (BUG!)");

  // --- Phase breakdown + planner stats of the single-threaded run. -------
  std::printf("\n=== Fused phase breakdown (1 thread, ms) ===\n");
  TextTable phases({"phase", "ms"});
  phases.AddRow({"cover-group base group-bys (the scans)",
                 FormatDouble(fused_compute.base_ms, 2)});
  phases.AddRow({"roll-ups + domain enumeration",
                 FormatDouble(fused_compute.derive_ms, 2)});
  phases.AddRow({"noise", FormatDouble(fused_stats.noise_ms, 2)});
  phases.AddRow({"format", FormatDouble(fused_stats.format_ms, 2)});
  phases.AddRow({"independent group-by total (for contrast)",
                 FormatDouble(independent_group_by_ms, 2)});
  phases.Print(std::cout);
  std::printf(
      "\nplanner: %d cover group(s), %d scan(s), %d prefix merge(s), "
      "%d non-prefix roll-up(s), %d exact hit(s)\n",
      fused_compute.cover_groups, fused_compute.full_table_scans,
      fused_compute.prefix_merges, fused_compute.parallel_rollups,
      fused_compute.exact_hits);
  std::printf("roll-up lattice:\n");
  for (size_t i = 0; i < fused_compute.sources.size(); ++i) {
    std::string columns;
    for (const auto& c : config.workload.marginals[i].AllColumns()) {
      if (!columns.empty()) columns += ",";
      columns += c;
    }
    std::printf("  [%s] <- %s\n", columns.c_str(),
                fused_compute.sources[i].c_str());
  }

  bench::BenchJson& phases_json = json["fused_phases_1_thread"];
  phases_json["base_ms"] = bench::BenchJson::Num(fused_compute.base_ms);
  phases_json["derive_ms"] = bench::BenchJson::Num(fused_compute.derive_ms);
  phases_json["noise_ms"] = bench::BenchJson::Num(fused_stats.noise_ms);
  phases_json["format_ms"] = bench::BenchJson::Num(fused_stats.format_ms);
  bench::BenchJson& planner_json = json["planner"];
  planner_json["cover_groups"] =
      bench::BenchJson::Num(fused_compute.cover_groups);
  planner_json["full_table_scans"] =
      bench::BenchJson::Num(fused_compute.full_table_scans);
  planner_json["prefix_merges"] =
      bench::BenchJson::Num(fused_compute.prefix_merges);
  planner_json["parallel_rollups"] =
      bench::BenchJson::Num(fused_compute.parallel_rollups);
  planner_json["exact_hits"] = bench::BenchJson::Num(fused_compute.exact_hits);
  json["bit_identical"] = bench::BenchJson::Bool(ok);
  bench::MaybeWriteJson(flags, json);
  return ok ? 0 : 1;
}
