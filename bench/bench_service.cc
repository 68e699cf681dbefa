// Request-front load sweep: client threads flood the admission-controlled
// Service (a concurrency limit plus bounded waiting places; each caller
// runs its own request) with deadline-stamped lookups, scaling offered
// load past saturation. Reported per client count: sustained answers/s,
// shed rate, and completed-request latency percentiles (p50/p95/p99).
// Every completed answer is validated against the released tables, and
// the outcome accounting must reconcile to the exact request count with
// snapshot_pins == completions — nonzero exit on either failing, the
// overload contract is part of the measurement.
//
// Extra flags on top of bench_common's:
//   --requests=N     requests per client per round (default 4000)
//   --workers=N      concurrency limit: requests running at once (default 2)
//   --capacity=N     waiting places for requests beyond it (default 16)
//   --deadline-ms=N  per-request deadline budget (default 250)
//   --dir=PATH       store directory (default /tmp/eep_bench_service; wiped)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "release/pipeline.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/store.h"

namespace {

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0.0;
  const size_t idx = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[idx];
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

  const int requests =
      std::max(1, static_cast<int>(flags.GetInt("requests", 4000)));
  const int workers =
      std::max(1, static_cast<int>(flags.GetInt("workers", 2)));
  const size_t capacity = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("capacity", 16)));
  const int64_t deadline_ms =
      std::max<int64_t>(1, flags.GetInt("deadline-ms", 250));
  const std::string dir = flags.GetString("dir", "/tmp/eep_bench_service");
  std::filesystem::remove_all(dir);

  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;

  std::printf("=== Request front — admission control under a client-load "
              "sweep ===\n");
  bench::PrintDatasetSummary(data, setup);

  auto writer = store::Store::Open(dir);
  if (!writer.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 writer.status().ToString().c_str());
    return 1;
  }
  config.persist_to = writer.value().get();
  Rng rng(setup.generator.seed ^ 0x5E471CEu);
  std::vector<release::ReleasedTable> released;
  {
    auto result = release::RunReleaseWorkload(data, config, nullptr, rng);
    if (!result.ok()) {
      std::fprintf(stderr, "release failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    released = std::move(result).value();
  }

  serve::ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  server_options.expected_fingerprint = serve::ExpectedFingerprint(config);
  auto opened = serve::Server::Open(dir, server_options);
  if (!opened.ok() || opened.value()->serving_epoch() != 1) {
    std::fprintf(stderr, "server open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  serve::Server* server = opened.value().get();

  // Flatten (table, row) request targets so clients can stride cheaply.
  std::vector<std::pair<size_t, size_t>> targets;
  for (size_t t = 0; t < released.size(); ++t) {
    for (size_t r = 0; r < released[t].rows.size(); ++r) {
      targets.emplace_back(t, r);
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "nothing released\n");
    return 1;
  }

  std::printf("%zu released cells; %zu waiting places, %d slots, "
              "deadline %lld ms, %d requests/client\n\n",
              targets.size(), capacity, workers,
              static_cast<long long>(deadline_ms), requests);

  bool contract_holds = true;
  bench::BenchJson sweep = bench::BenchJson::Array();
  TextTable table({"clients", "answers/s", "shed %", "expired %", "p50 ms",
                   "p95 ms", "p99 ms", "reconciled"});
  for (int clients : {1, 2, 4, 8, 16}) {
    serve::ServiceOptions options;
    options.queue_capacity = capacity;
    options.num_workers = workers;
    auto created = serve::Service::Create(server, options);
    if (!created.ok()) {
      std::fprintf(stderr, "service create failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    serve::Service* service = created.value().get();

    std::atomic<uint64_t> ok_count{0}, shed_count{0}, expired_count{0},
        wrong{0};
    // Per-client latency slices: disjoint writes, merged after the join.
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(clients));
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      // Client c writes latencies[c] only; the tallies are atomics.
      pool.emplace_back([&, c] {
        std::vector<double>& mine = latencies[static_cast<size_t>(c)];
        mine.reserve(static_cast<size_t>(requests));
        for (int r = 0; r < requests; ++r) {
          const auto& [t, row] =
              targets[(static_cast<size_t>(c) * 7919 +
                       static_cast<size_t>(r)) % targets.size()];
          const auto& want = released[t].rows[row];
          serve::LookupRequest lookup;
          lookup.table = released[t].name;
          lookup.values.clear();
          for (size_t a = 0; a + 1 < released[t].header.size(); ++a) {
            lookup.values[released[t].header[a]] = want[a];
          }
          lookup.deadline_ms = service->DeadlineAfterMs(deadline_ms);
          const auto sent = std::chrono::steady_clock::now();
          auto got = service->Lookup(lookup);
          if (got.ok()) {
            mine.push_back(bench::MsSince(sent));
            if (got.value() != want.back()) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
            ok_count.fetch_add(1, std::memory_order_relaxed);
          } else if (got.status().code() == StatusCode::kResourceExhausted) {
            shed_count.fetch_add(1, std::memory_order_relaxed);
          } else if (got.status().code() == StatusCode::kDeadlineExceeded) {
            expired_count.fetch_add(1, std::memory_order_relaxed);
          } else {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    const double elapsed_ms = bench::MsSince(start);

    const uint64_t total =
        static_cast<uint64_t>(clients) * static_cast<uint64_t>(requests);
    const serve::ServiceStats stats = service->stats();
    const bool reconciled =
        wrong.load() == 0 &&
        ok_count.load() + shed_count.load() + expired_count.load() == total &&
        stats.admitted + stats.shed + stats.expired_at_admission == total &&
        stats.completed + stats.expired_in_queue == stats.admitted &&
        stats.completed == ok_count.load() &&
        stats.snapshot_pins == stats.completed;
    if (!reconciled) contract_holds = false;

    std::vector<double> merged;
    merged.reserve(static_cast<size_t>(ok_count.load()));
    for (const auto& slice : latencies) {
      merged.insert(merged.end(), slice.begin(), slice.end());
    }
    std::sort(merged.begin(), merged.end());
    const double answers_per_s =
        static_cast<double>(ok_count.load()) / (elapsed_ms / 1000.0);
    const double shed_pct =
        100.0 * static_cast<double>(shed_count.load()) /
        static_cast<double>(total);
    const double expired_pct =
        100.0 * static_cast<double>(expired_count.load()) /
        static_cast<double>(total);
    table.AddRow({std::to_string(clients),
                  std::to_string(std::llround(answers_per_s)),
                  FormatDouble(shed_pct, 2), FormatDouble(expired_pct, 2),
                  FormatDouble(Percentile(&merged, 0.50), 3),
                  FormatDouble(Percentile(&merged, 0.95), 3),
                  FormatDouble(Percentile(&merged, 0.99), 3),
                  reconciled ? "yes" : "NO (BUG!)"});
    bench::BenchJson& entry = sweep.Append(bench::BenchJson());
    entry["clients"] = bench::BenchJson::Num(clients);
    entry["requests"] = bench::BenchJson::Num(static_cast<double>(total));
    entry["answers_per_s"] = bench::BenchJson::Num(answers_per_s);
    entry["shed_rate"] = bench::BenchJson::Num(shed_pct / 100.0);
    entry["expired_rate"] = bench::BenchJson::Num(expired_pct / 100.0);
    entry["p50_ms"] = bench::BenchJson::Num(Percentile(&merged, 0.50));
    entry["p95_ms"] = bench::BenchJson::Num(Percentile(&merged, 0.95));
    entry["p99_ms"] = bench::BenchJson::Num(Percentile(&merged, 0.99));
    entry["reconciled"] = bench::BenchJson::Bool(reconciled);
  }

  table.Print(std::cout);
  std::printf("\noutcome accounting %s; completed answers %s the released "
              "tables\n",
              contract_holds ? "reconciles exactly" : "DOES NOT RECONCILE "
                                                      "(BUG!)",
              contract_holds ? "BIT-IDENTICAL to" : "or DIFFER from");

  bench::BenchJson json;
  bench::FillJsonHeader(json, "bench_service", data, setup);
  json["queue_capacity"] =
      bench::BenchJson::Num(static_cast<double>(capacity));
  json["workers"] = bench::BenchJson::Num(workers);
  json["deadline_ms"] =
      bench::BenchJson::Num(static_cast<double>(deadline_ms));
  json["sweep"] = sweep;
  json["contract_holds"] = bench::BenchJson::Bool(contract_holds);
  bench::MaybeWriteJson(flags, json);

  std::filesystem::remove_all(dir);
  return contract_holds ? 0 : 1;
}
