// Scaling bench for the sharded release pipeline: times RunReleaseWorkload
// over a one-marginal workload of a large marginal at increasing
// worker-thread counts, verifies that every thread count produces a
// bit-identical table for the fixed seed, reports the speedup relative to
// the single-threaded run, and then times each mechanism's ReleaseBatch
// over the same cells.
//
// Extra flags on top of bench_common's (including --paper for the 10.9M
// extract):
//   --marginal=NAME    establishment | workplace_sexedu | full_demographics
//                      (default full_demographics, the largest tabulation)
//   --mechanism=NAME   log_laplace | smooth_laplace | smooth_gamma |
//                      edge_laplace | geometric — mechanism for the thread
//                      sweep (default smooth_laplace)
//   --max_threads=N    highest thread count in the sweep (default 8)
//   --reps=N           timed repetitions per thread count, best-of in the
//                      sweep and median [min, max] in the phase table
//                      (default 3). Values below 1 of either flag count as
//                      1, so the bit-identity check always compares
//                      something.
//   --shard=N          cells per shard (default 1024)
#include <chrono>
#include <functional>
#include <string>

#include "bench_common.h"
#include "release/pipeline.h"

namespace {

size_t HashRows(const eep::release::ReleasedTable& table) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : table.rows) {
    for (const auto& cell : row) {
      for (char c : cell) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      h = (h ^ '|') * 0x100000001b3ULL;
    }
    h = (h ^ '\n') * 0x100000001b3ULL;
  }
  return h;
}

// The median [min, max] of one phase's repetitions.
struct Spread {
  double median;
  double min;
  double max;
};

Spread SpreadOf(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const size_t mid = ms.size() / 2;
  const double median =
      ms.size() % 2 == 1 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2.0;
  return {median, ms.front(), ms.back()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  release::WorkloadReleaseConfig config;
  const std::string marginal =
      flags.GetString("marginal", "full_demographics");
  auto spec = lodes::MarginalSpec::ByName(marginal);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  config.workload = {{std::move(spec).value()}};
  auto sweep_kind =
      eval::MechanismKindByName(flags.GetString("mechanism", "smooth_laplace"));
  if (!sweep_kind.ok()) {
    std::fprintf(stderr, "%s\n", sweep_kind.status().ToString().c_str());
    return 1;
  }
  config.mechanism = sweep_kind.value();
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  config.shard_size = static_cast<int>(flags.GetInt("shard", 1024));

  const int max_threads =
      std::max(1, static_cast<int>(flags.GetInt("max_threads", 8)));
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 3)));
  const uint64_t noise_seed = setup.generator.seed ^ 0x9E1Eu;

  std::printf("=== Release pipeline scaling — %s marginal, %s ===\n",
              marginal.c_str(), eval::MechanismKindName(config.mechanism));
  bench::PrintDatasetSummary(data, setup);

  TextTable table({"threads", "best ms", "speedup", "cells/s", "rows hash"});
  double base_ms = 0.0;
  size_t base_hash = 0;
  size_t num_cells = 0;
  bool all_identical = true;
  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_release_pipeline", data, setup);
  json["marginal"] = bench::BenchJson::Str(marginal);
  json["mechanism"] =
      bench::BenchJson::Str(eval::MechanismKindName(config.mechanism));
  bench::BenchJson& json_sweep = json["sweep"];
  json_sweep = bench::BenchJson::Array();
  std::vector<int> sweep;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    sweep.push_back(threads);
  }
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  for (int threads : sweep) {
    config.num_threads = threads;
    double best_ms = 0.0;
    size_t hash = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(noise_seed);
      const auto start = std::chrono::steady_clock::now();
      auto released = release::RunReleaseWorkload(data, config, nullptr, rng);
      const auto stop = std::chrono::steady_clock::now();
      if (!released.ok()) {
        std::fprintf(stderr, "release failed: %s\n",
                     released.status().ToString().c_str());
        return 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      hash = HashRows(released.value()[0]);
      num_cells = released.value()[0].rows.size();
    }
    if (threads == 1) {
      base_ms = best_ms;
      base_hash = hash;
    } else if (hash != base_hash) {
      all_identical = false;
    }
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016zx", hash);
    table.AddRow({std::to_string(threads), FormatDouble(best_ms, 2),
                  FormatDouble(base_ms / best_ms, 2),
                  std::to_string(static_cast<long long>(
                      num_cells / (best_ms / 1000.0))),
                  hash_hex});
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["best_ms"] = bench::BenchJson::Num(best_ms);
    entry["speedup_vs_1_thread"] = bench::BenchJson::Num(base_ms / best_ms);
    entry["identical"] = bench::BenchJson::Bool(hash == base_hash);
    json_sweep.Append(std::move(entry));
  }
  table.Print(std::cout);
  std::printf("\n%zu cells; released tables %s across thread counts\n",
              num_cells,
              all_identical ? "BIT-IDENTICAL" : "DIFFER (BUG!)");

  // --- Per-phase breakdown: group-by vs noise vs formatting. --------------
  // group-by is the wall time of the scan plus deriving the marginal from
  // it (the compute stats' base + derive); noise and
  // formatting are CPU time summed across shard workers (at N threads their
  // wall share is roughly 1/N). One run is too noisy to show a few-ms
  // change, so each thread count runs --reps times; every rep's table must
  // hash like the sweep's 1-thread table.
  std::printf("\n=== Release phase breakdown (ms, median [min, max] of %d) "
              "===\n",
              reps);
  TextTable phase_table(
      {"threads", "group-by", "noise", "format", "total wall"});
  for (int threads : {1, max_threads}) {
    config.num_threads = threads;
    // Per phase, in column order: group-by, noise, format, total wall.
    std::vector<std::vector<double>> phase_ms(4);
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(noise_seed);
      release::WorkloadReleaseStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto released = release::RunReleaseWorkload(data, config, nullptr, rng,
                                                  nullptr, &stats);
      const double total_ms = bench::MsSince(start);
      if (!released.ok()) {
        std::fprintf(stderr, "release failed: %s\n",
                     released.status().ToString().c_str());
        return 1;
      }
      if (HashRows(released.value()[0]) != base_hash) all_identical = false;
      phase_ms[0].push_back(stats.compute.base_ms + stats.compute.derive_ms);
      phase_ms[1].push_back(stats.noise_ms);
      phase_ms[2].push_back(stats.format_ms);
      phase_ms[3].push_back(total_ms);
    }
    std::vector<std::string> cells = {std::to_string(threads)};
    bench::BenchJson entry;
    entry["threads"] = bench::BenchJson::Num(threads);
    const char* const keys[] = {"group_by_ms", "noise_ms", "format_ms",
                                "total_wall_ms"};
    for (size_t p = 0; p < phase_ms.size(); ++p) {
      const Spread spread = SpreadOf(phase_ms[p]);
      cells.push_back(FormatDouble(spread.median, 3) + " [" +
                      FormatDouble(spread.min, 3) + ", " +
                      FormatDouble(spread.max, 3) + "]");
      const std::string key = keys[p];
      entry[key] = bench::BenchJson::Num(spread.median);
      entry[key + "_min"] = bench::BenchJson::Num(spread.min);
      entry[key + "_max"] = bench::BenchJson::Num(spread.max);
    }
    phase_table.AddRow(cells);
    json["phases"].Append(std::move(entry));
    if (threads == max_threads) break;  // dedupe when max_threads == 1
  }
  phase_table.Print(std::cout);
  if (!all_identical) {
    std::printf("a phase-table rep's table DIFFERS from the 1-thread sweep "
                "(BUG!)\n");
  }

  // --- Batch sampling throughput, per mechanism. --------------------------
  // Times the mechanism layer in isolation over the same cells the sweep
  // released, best of --reps.
  std::printf("\n=== ReleaseBatch sampling — %zu cells ===\n", num_cells);
  auto query =
      lodes::MarginalQuery::Compute(data, config.workload.marginals[0]);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::vector<mechanisms::CellQuery> cells;
  cells.reserve(query.value().cells().size());
  for (const auto& cell : query.value().cells()) {
    mechanisms::CellQuery cq;
    cq.true_count = cell.count;
    cq.x_v = cell.x_v;
    // None of the pipeline mechanism kinds reads contributions; skip the
    // per-cell grouped() lookup the real pipeline pays for them.
    cells.push_back(cq);
  }
  TextTable mech_table({"mechanism", "batch ms", "batch cells/s"});
  const std::vector<eval::MechanismKind> kinds = {
      eval::MechanismKind::kLogLaplace, eval::MechanismKind::kSmoothLaplace,
      eval::MechanismKind::kSmoothGamma, eval::MechanismKind::kEdgeLaplace,
      eval::MechanismKind::kSmoothGeometric};
  for (eval::MechanismKind kind : kinds) {
    auto mech = eval::MakeMechanism(kind, config.alpha, config.epsilon,
                                    config.delta);
    if (!mech.ok()) {
      mech_table.AddRow({eval::MechanismKindName(kind), "-", "infeasible"});
      continue;
    }
    double ms = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(noise_seed);
      std::vector<double> out;
      out.reserve(cells.size());
      const auto start = std::chrono::steady_clock::now();
      const Status st = mech.value()->ReleaseBatch(cells, rng, &out);
      const auto stop = std::chrono::steady_clock::now();
      if (!st.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", eval::MechanismKindName(kind),
                     st.ToString().c_str());
        return 1;
      }
      const double elapsed =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || elapsed < ms) ms = elapsed;
    }
    mech_table.AddRow(
        {eval::MechanismKindName(kind), FormatDouble(ms, 2),
         std::to_string(static_cast<long long>(cells.size() / (ms / 1000.0)))});
  }
  mech_table.Print(std::cout);
  json["bit_identical"] = bench::BenchJson::Bool(all_identical);
  bench::MaybeWriteJson(flags, json);
  return all_identical ? 0 : 1;
}
