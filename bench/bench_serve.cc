// Serving-layer bench: answers-per-second out of the epoch-pinned
// snapshot index, scaling over 1..8 reader threads, the cost of one lookup
// in random order through the map form Service::Lookup calls, plus the
// cost of the things the serving layer does off the hot path — loading an
// epoch into a Snapshot and swapping it in under reader load. Every
// measured lookup is validated against the released tables (nonzero exit
// on mismatch: the bit-identity contract is part of the measurement).
//
// Extra flags on top of bench_common's:
//   --reps=N     timed repetitions per measurement, best-of (default 5)
//   --epochs=N   commits during the swap-under-load phase (default 6)
//   --dir=PATH   store directory (default /tmp/eep_bench_serve; wiped)
//
// The default --jobs is 400000, matching bench_store: the sweep should
// index paper-shaped tables, not toy ones.
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "release/pipeline.h"
#include "serve/server.h"
#include "store/store.h"

namespace {

// One reader's share of a sweep round: look up every `threads`-th cell of
// every table, strided by reader index, and check the answer verbatim.
// Returns the number of mismatches (0 on a clean run).
uint64_t LookupSlice(const eep::serve::Snapshot& snap,
                     const std::vector<eep::release::ReleasedTable>& released,
                     int reader, int threads, uint64_t* answered) {
  if (snap.tables().size() != released.size()) return 1;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < released.size(); ++i) {
    const auto& rows = released[i].rows;
    const eep::serve::ServedTable& served = snap.tables()[i];
    // Tables pair up by committed position; a different name would make
    // every answer below an answer from the wrong table.
    if (served.name() != released[i].name) ++mismatches;
    for (size_t r = static_cast<size_t>(reader); r < rows.size();
         r += static_cast<size_t>(threads)) {
      std::vector<std::string> key(rows[r].begin(), rows[r].end() - 1);
      auto got = served.Lookup(key);
      if (!got.ok() || got.value() != rows[r].back()) ++mismatches;
      ++*answered;
    }
  }
  return mismatches;
}

// One released cell as Service::Lookup receives it: the table's name and
// one value per attribute column, by column name.
struct CellRequest {
  std::string table;
  std::map<std::string, std::string> values;
  const std::string* want;  // the released count
};

// Every released cell once, in a seeded random order, so consecutive
// lookups touch unrelated tables, labels and keys.
std::vector<CellRequest> ShuffledRequests(
    const std::vector<eep::release::ReleasedTable>& released,
    uint64_t seed) {
  std::vector<CellRequest> requests;
  for (const auto& table : released) {
    for (const auto& row : table.rows) {
      CellRequest request{table.name, {}, &row.back()};
      for (size_t c = 0; c + 1 < table.header.size(); ++c) {
        request.values[table.header[c]] = row[c];
      }
      requests.push_back(std::move(request));
    }
  }
  eep::Rng rng(seed);
  for (size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1],
              requests[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  if (!flags.GetBool("paper", false)) {
    setup.generator.target_jobs = flags.GetInt("jobs", 400000);
  }
  lodes::LodesDataset data = bench::MustGenerate(setup);

  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 5)));
  const int epochs = std::max(2, static_cast<int>(flags.GetInt("epochs", 6)));
  const std::string dir = flags.GetString("dir", "/tmp/eep_bench_serve");
  std::filesystem::remove_all(dir);

  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;

  std::printf("=== Serving layer — snapshot lookups / reader scaling / "
              "swap under load ===\n");
  bench::PrintDatasetSummary(data, setup);

  // --- Release + persist epoch 1; keep every epoch's tables around so ----
  // --- readers can audit whichever epoch their pinned snapshot names. ----
  auto writer = store::Store::Open(dir);
  if (!writer.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 writer.status().ToString().c_str());
    return 1;
  }
  config.persist_to = writer.value().get();
  Rng rng(setup.generator.seed ^ 0x5E47Eu);
  // released_by_epoch[e-1] holds epoch e's tables. Pre-sized so the load
  // phase never reallocates under the readers: slot e-1 is written before
  // epoch e is published through the server's snapshot swap, and readers
  // touch it only after pinning epoch e — the swap's mutex is the
  // happens-before edge.
  std::vector<std::vector<release::ReleasedTable>> released_by_epoch(
      static_cast<size_t>(epochs));
  {
    auto result = release::RunReleaseWorkload(data, config, nullptr, rng);
    if (!result.ok()) {
      std::fprintf(stderr, "release failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    released_by_epoch[0] = std::move(result).value();
  }
  size_t released_cells = 0;
  for (const auto& table : released_by_epoch[0]) {
    released_cells += table.rows.size();
  }

  // --- Snapshot load: the off-hot-path cost a refresh pays. --------------
  serve::ServerOptions options;
  options.poll_interval_ms = 0;
  options.expected_fingerprint = serve::ExpectedFingerprint(config);
  double load_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto server = serve::Server::Open(dir, options);
    const double ms = bench::MsSince(start);
    if (!server.ok() || server.value()->serving_epoch() != 1) {
      std::fprintf(stderr, "server open failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ms < load_ms) load_ms = ms;
  }

  auto opened = serve::Server::Open(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  serve::Server* server = opened.value().get();

  // --- Reader sweep: every released cell answered once per round, -------
  // --- split across T pinned readers.                              -------
  bool identical = true;
  bench::BenchJson sweep = bench::BenchJson::Array();
  double one_thread_ms = 0.0;
  TextTable sweep_table({"readers", "best ms", "lookups/s", "identical"});
  for (int threads : {1, 2, 4, 8}) {
    double best_ms = 0.0;
    bool round_identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      std::atomic<uint64_t> mismatches{0};
      std::atomic<uint64_t> answered{0};
      std::vector<std::thread> pool;
      pool.reserve(static_cast<size_t>(threads));
      const auto start = std::chrono::steady_clock::now();
      for (int w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
          // Pin once per round, like a request would.
          std::shared_ptr<const serve::Snapshot> snap = server->snapshot();
          uint64_t local_answered = 0;
          const uint64_t bad = LookupSlice(*snap, released_by_epoch[0], w,
                                           threads, &local_answered);
          mismatches.fetch_add(bad, std::memory_order_relaxed);
          answered.fetch_add(local_answered, std::memory_order_relaxed);
        });
      }
      for (auto& t : pool) t.join();
      const double ms = bench::MsSince(start);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      if (mismatches.load() != 0 || answered.load() != released_cells) {
        round_identical = false;
      }
    }
    if (threads == 1) one_thread_ms = best_ms;
    if (!round_identical) identical = false;
    const double per_s = static_cast<double>(released_cells) /
                         (best_ms / 1000.0);
    sweep_table.AddRow({std::to_string(threads), FormatDouble(best_ms, 2),
                        std::to_string(std::llround(per_s)),
                        round_identical ? "yes" : "NO (BUG!)"});
    bench::BenchJson& entry = sweep.Append(bench::BenchJson());
    entry["threads"] = bench::BenchJson::Num(threads);
    entry["best_ms"] = bench::BenchJson::Num(best_ms);
    entry["lookups_per_s"] = bench::BenchJson::Num(per_s);
    entry["identical"] = bench::BenchJson::Bool(round_identical);
  }

  // --- Random order through the map form: what a request pays. ----------
  // Find + LookupCell on one pinned snapshot, as Service::Lookup runs
  // them, over every released cell in a seeded shuffle.
  const std::vector<CellRequest> requests =
      ShuffledRequests(released_by_epoch[0], setup.generator.seed ^ 0x10C4u);
  double random_ms = 0.0;
  {
    std::shared_ptr<const serve::Snapshot> snap = server->snapshot();
    for (int rep = 0; rep < reps; ++rep) {
      uint64_t mismatches = 0;
      const auto start = std::chrono::steady_clock::now();
      for (const CellRequest& request : requests) {
        auto table = snap->Find(request.table);
        auto got = table.ok() ? table.value()->LookupCell(request.values)
                              : Result<std::string>(table.status());
        if (!got.ok() || got.value() != *request.want) ++mismatches;
      }
      const double ms = bench::MsSince(start);
      if (rep == 0 || ms < random_ms) random_ms = ms;
      if (mismatches != 0) identical = false;
    }
  }
  const double random_lookup_ns =
      requests.empty() ? 0.0
                       : random_ms * 1e6 / static_cast<double>(requests.size());

  // --- Swap under load: commits race pinned readers; measure how long ----
  // --- a committed epoch takes to start serving.                      ----
  constexpr int kLoadReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> load_lookups{0};
  std::atomic<uint64_t> load_mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kLoadReaders);
  for (int w = 0; w < kLoadReaders; ++w) {
    readers.emplace_back([&, w] {
      while (!done.load(std::memory_order_relaxed)) {
        std::shared_ptr<const serve::Snapshot> snap = server->snapshot();
        const size_t e = static_cast<size_t>(snap->epoch());
        if (e == 0 || e > released_by_epoch.size()) {
          load_mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Audit a 1/64 sample of the pinned epoch against ITS release.
        uint64_t answered = 0;
        load_mismatches.fetch_add(
            LookupSlice(*snap, released_by_epoch[e - 1], w, 64, &answered),
            std::memory_order_relaxed);
        load_lookups.fetch_add(answered, std::memory_order_relaxed);
      }
    });
  }
  double swap_visible_ms = 0.0;
  double commit_ms = 0.0;
  const auto load_start = std::chrono::steady_clock::now();
  for (int epoch = 2; epoch <= epochs; ++epoch) {
    auto result = release::RunReleaseWorkload(data, config, nullptr, rng);
    if (!result.ok()) {
      std::fprintf(stderr, "release %d failed: %s\n", epoch,
                   result.status().ToString().c_str());
      return 1;
    }
    released_by_epoch[static_cast<size_t>(epoch - 1)] =
        std::move(result).value();
    const auto committed = std::chrono::steady_clock::now();
    if (!server->RefreshNow().ok() ||
        !server->WaitForEpoch(static_cast<uint64_t>(epoch), 30000)) {
      std::fprintf(stderr, "epoch %d never served\n", epoch);
      return 1;
    }
    const double ms = bench::MsSince(committed);
    if (epoch == 2 || ms < swap_visible_ms) swap_visible_ms = ms;
  }
  commit_ms = bench::MsSince(load_start);
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  if (load_mismatches.load() != 0) identical = false;
  const serve::Server::Stats stats = server->stats();

  std::printf("%zu released cells across %zu tables; %d epochs served\n\n",
              released_cells, released_by_epoch[0].size(), epochs);
  sweep_table.Print(std::cout);
  std::printf("\n");
  TextTable table({"measurement", "best ms", "note"});
  table.AddRow({"snapshot load (Server::Open)", FormatDouble(load_ms, 2),
                "decode + index one epoch"});
  table.AddRow({"random-order LookupCell", FormatDouble(random_ms, 2),
                std::to_string(std::llround(random_lookup_ns)) +
                    " ns per lookup"});
  table.AddRow({"commit -> serving (under load)",
                FormatDouble(swap_visible_ms, 2),
                std::to_string(kLoadReaders) + " readers pinned"});
  char note[64];
  std::snprintf(note, sizeof(note), "%llu audited lookups, %llu swaps",
                static_cast<unsigned long long>(load_lookups.load()),
                static_cast<unsigned long long>(stats.swaps));
  table.AddRow({"swap-under-load phase", FormatDouble(commit_ms, 2), note});
  table.Print(std::cout);
  std::printf("\nserved answers %s the released tables\n",
              identical ? "BIT-IDENTICAL to" : "DIFFER from (BUG!)");

  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_serve", data, setup);
  json["released_cells"] = bench::BenchJson::Num(double(released_cells));
  json["snapshot_load_ms"] = bench::BenchJson::Num(load_ms);
  json["one_reader_ms"] = bench::BenchJson::Num(one_thread_ms);
  json["sweep"] = sweep;
  json["random_lookup_ns"] = bench::BenchJson::Num(random_lookup_ns);
  json["epochs_served"] = bench::BenchJson::Num(epochs);
  json["swap_visible_ms"] = bench::BenchJson::Num(swap_visible_ms);
  json["load_phase_lookups"] =
      bench::BenchJson::Num(double(load_lookups.load()));
  json["refresh_failures"] = bench::BenchJson::Num(double(stats.failures));
  json["bit_identical"] = bench::BenchJson::Bool(identical);
  bench::MaybeWriteJson(flags, json);

  std::filesystem::remove_all(dir);
  return identical && stats.failures == 0 ? 0 : 1;
}
