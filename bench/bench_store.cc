// Crash-safe release store bench: times the persist step of
// RunReleaseWorkload (segment writes + checksums + fsyncs + manifest
// append), Store::Open recovery latency as epochs accumulate, and serving a
// release by READ-BACK from the store against RECOMPUTING it from the
// microdata — the latency argument for persisting releases at all. Every
// read-back is checked bit-identical to the tables the pipeline released
// (nonzero exit on mismatch: the durability contract is part of the
// measurement).
//
// Extra flags on top of bench_common's:
//   --epochs=N   committed epochs before the reopen/read-back timings
//                (default 4; recovery cost is a function of manifest size)
//   --reps=N     timed repetitions per measurement, best-of (default 5);
//                the persist step reports its first commit (into an
//                empty directory) apart from the median of the later ones
//   --dir=PATH   store directory (default /tmp/eep_bench_store; wiped)
//
// The default --jobs is 400000 here (not bench_common's 120000): the store
// pays per released BYTE, and the 400k preset yields wide-enough tables
// that fsync cost stops dominating.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "bench_common.h"
#include "release/pipeline.h"
#include "store/store.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  if (!flags.GetBool("paper", false)) {
    setup.generator.target_jobs = flags.GetInt("jobs", 400000);
  }
  lodes::LodesDataset data = bench::MustGenerate(setup);

  const int epochs = std::max(1, static_cast<int>(flags.GetInt("epochs", 4)));
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 5)));
  const std::string dir = flags.GetString("dir", "/tmp/eep_bench_store");
  std::filesystem::remove_all(dir);

  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;
  const uint64_t noise_seed = setup.generator.seed ^ 0x5704Eu;

  std::printf("=== Crash-safe release store — persist / recover / serve ===\n");
  bench::PrintDatasetSummary(data, setup);

  // --- Recompute baseline: releasing the workload from microdata. --------
  double recompute_ms = 0.0;
  std::vector<release::ReleasedTable> released;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(noise_seed);
    const auto start = std::chrono::steady_clock::now();
    auto result = release::RunReleaseWorkload(data, config, nullptr, rng);
    const double ms = bench::MsSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "release failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ms < recompute_ms) recompute_ms = ms;
    released = std::move(result).value();
  }
  size_t released_cells = 0;
  for (const auto& table : released) released_cells += table.rows.size();

  // --- Persist: the same release with a store attached. ------------------
  // Each rep commits one more epoch, so the later reopen/read-back
  // measurements see a manifest with `epochs` committed epochs (capped by
  // reps below) — recovery cost is a function of history length. The
  // first commit creates the manifest in an empty directory; the later
  // ones are the steady state, so the two are reported apart.
  std::vector<double> persist_ms;
  double release_with_store_ms = 0.0;
  uint64_t persisted_bytes = 0;
  bool identical = true;
  {
    auto store = store::Store::Open(dir);
    if (!store.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    config.persist_to = store.value().get();
    for (int rep = 0; rep < std::max({reps, epochs, 2}); ++rep) {
      Rng rng(noise_seed);
      release::WorkloadReleaseStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto result = release::RunReleaseWorkload(data, config, nullptr, rng,
                                                nullptr, &stats);
      const double ms = bench::MsSince(start);
      if (!result.ok()) {
        std::fprintf(stderr, "persisting release failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      persist_ms.push_back(stats.persist_ms);
      if (rep == 1 || (rep > 1 && ms < release_with_store_ms)) {
        release_with_store_ms = ms;  // best of the later commits
      }
      // Persisting must never perturb the noise stream (or the names and
      // headers of the released tables).
      if (!(result.value() == released)) identical = false;
    }
    auto info = store.value()->CurrentEpoch();
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    for (const auto& meta : info.value()->tables) {
      persisted_bytes += meta.size_bytes;
    }
  }
  const double persist_mb =
      static_cast<double>(persisted_bytes) / (1024.0 * 1024.0);
  const double persist_first_ms = persist_ms.front();
  std::vector<double> later(persist_ms.begin() + 1, persist_ms.end());
  std::sort(later.begin(), later.end());
  const size_t mid = later.size() / 2;
  const double persist_later_ms =
      later.size() % 2 == 1 ? later[mid] : (later[mid - 1] + later[mid]) / 2;

  // --- Reopen: recovery latency over the committed history. --------------
  double reopen_ms = 0.0;
  uint64_t last_epoch = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto store = store::Store::Open(dir);
    const double ms = bench::MsSince(start);
    if (!store.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ms < reopen_ms) reopen_ms = ms;
    last_epoch = store.value()->last_committed_epoch();
  }

  // --- Serve: read the current epoch back (checksums verified) vs the ----
  // --- recompute baseline above.                                       ----
  double readback_ms = 0.0;
  {
    auto store = store::Store::Open(dir);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto read = store.value()->ReadEpoch(last_epoch);
      const double ms = bench::MsSince(start);
      if (!read.ok()) {
        std::fprintf(stderr, "read-back failed: %s\n",
                     read.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < readback_ms) readback_ms = ms;
      if (!(read.value() == released)) identical = false;
    }
  }

  std::printf("%zu released cells across %zu tables; %.2f MiB per epoch, "
              "%llu epochs committed\n\n",
              released_cells, released.size(), persist_mb,
              static_cast<unsigned long long>(last_epoch));
  TextTable table({"measurement", "ms (best of reps unless noted)", "note"});
  table.AddRow({"release (recompute, no store)", FormatDouble(recompute_ms, 2),
                "group-by + noise + format"});
  table.AddRow({"release + persist", FormatDouble(release_with_store_ms, 2),
                "best of the later commits"});
  table.AddRow({"persist, first commit", FormatDouble(persist_first_ms, 3),
                "creates the manifest in an empty directory"});
  char throughput[96];
  std::snprintf(throughput, sizeof(throughput),
                "median of %zu; %.1f MiB/s fsync'd", later.size(),
                persist_mb / (persist_later_ms / 1000.0));
  table.AddRow({"persist, later commits", FormatDouble(persist_later_ms, 3),
                throughput});
  table.AddRow({"Store::Open (recovery)", FormatDouble(reopen_ms, 2),
                std::to_string(last_epoch) + " epochs of history"});
  table.AddRow({"serve by read-back", FormatDouble(readback_ms, 2),
                FormatDouble(recompute_ms / readback_ms, 1) +
                    "x faster than recompute"});
  table.Print(std::cout);
  std::printf("\nread-back %s the released tables\n",
              identical ? "BIT-IDENTICAL to" : "DIFFERS from (BUG!)");

  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_store", data, setup);
  json["released_cells"] = bench::BenchJson::Num(double(released_cells));
  json["epoch_bytes"] = bench::BenchJson::Num(double(persisted_bytes));
  json["epochs_committed"] = bench::BenchJson::Num(double(last_epoch));
  json["recompute_ms"] = bench::BenchJson::Num(recompute_ms);
  json["release_with_persist_ms"] =
      bench::BenchJson::Num(release_with_store_ms);
  json["persist_first_commit_ms"] = bench::BenchJson::Num(persist_first_ms);
  json["persist_later_median_ms"] = bench::BenchJson::Num(persist_later_ms);
  json["persist_mib_per_s"] =
      bench::BenchJson::Num(persist_mb / (persist_later_ms / 1000.0));
  json["reopen_ms"] = bench::BenchJson::Num(reopen_ms);
  json["readback_ms"] = bench::BenchJson::Num(readback_ms);
  json["readback_speedup_vs_recompute"] =
      bench::BenchJson::Num(recompute_ms / readback_ms);
  json["bit_identical"] = bench::BenchJson::Bool(identical);
  bench::MaybeWriteJson(flags, json);

  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
