// End-to-end benchmark of the release-and-serve stack: one named workload,
// from the raw synthetic extract to answers served through the request
// front (generate -> fused noised release -> durable store -> epoch-pinned
// snapshot -> admission-controlled Service). All timing happens here, around
// calls into each layer's public functions; src/ carries no instrumentation.
//
// The last stdout line is one JSON object:
//   {"correct": B, "attempted": N, "failed": F,
//    "metrics": {NAME: {"value": V, "unit": U}, ...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). Every answer is checked against the released tables; the
// exit code is nonzero on any mismatch, failed operation or broken outcome
// accounting.
//
// Flags:
//   --workload=NAME  release_cold | release_warm | serve_read | serve_mixed
//   --seed=N         seeds the extract, the noise and the request stream
//   --seconds=S      length of the timed window (fractions allowed)
//   --trace=0|1      1: record spans, run the per-layer probes after the
//                    window and report per-layer metrics
//   --spans=PATH     with --trace=1, also write every span as a JSON line
//   --dir=PATH       store directory; created fresh, removed at exit
//   --scale=smoke    shrink the extract (the CTest smoke run)
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "privacy/accountant.h"
#include "release/pipeline.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "store/store.h"
#include "table/group_by_cache.h"

namespace {

using namespace eep;

// --- Workloads ------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  bool large;        // large extract preset, else the 400k preset
  bool cycles;       // release cycles, else open-loop requests
  bool warm_cache;   // releases share a caller-held GroupByCache
  bool live_writer;  // a writer re-releases during the request window,
                     // picked up by the Server's refresh thread
  double topk_share;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"release_cold", true, true, false, false, 0.0},
    {"release_warm", true, true, true, false, 0.0},
    {"serve_read", false, false, false, false, 0.0},
    {"serve_mixed", true, false, true, true, 0.1},
};

struct Scale {
  int64_t jobs;
  int32_t places;
};
// 2M jobs keeps the fused scan about a third of a cold release cycle,
// while three set-ups and a 10 s window fit in ~13 s (the paper's 10.9M
// takes ~5 s per set-up and ~2 GB).
constexpr Scale kLarge{2000000, 320};
constexpr Scale kSmall{400000, 160};  // bench_serve/bench_service preset
constexpr Scale kSmoke{20000, 20};

constexpr int kSetups = 3;  // setup_s is the median of these
// The request load is assumed, not measured: no public source gives
// OnTheMap's request rate, its lookup/top-k mix or how popular each cell is.
constexpr double kRequestsPerSecond = 10000.0;  // Poisson arrivals
// Open-loop senders, so a request can arrive while another is in flight
// and the service's queue and both workers are used at once.
constexpr int kSenders = 2;
constexpr const char* kSenderNames[kSenders] = {"sender0", "sender1"};
constexpr int64_t kSpinNs = 100000;  // a sender spins this close to due
constexpr int64_t kDeadlineMs = 1000;
constexpr size_t kQueueCapacity = 128;
constexpr int kServiceWorkers = 2;
constexpr int kPollMs = 50;  // refresh thread cadence under a live writer
constexpr int64_t kWriterPeriodNs = 2000000000;
constexpr size_t kTopK = 10;
constexpr int kSamplerPeriodMs = 100;
// Each release is charged to an accountant of its own: delta composes
// additively and a delta budget stays below 1, so one ledger cannot hold
// the dozens of epochs a run publishes. The paper workload charges
// eps * (1 + worker cells of sex x education) and 2 * delta per release.
constexpr double kEpsilonBudgetMultiple = 1000.0;
constexpr double kDeltaBudget = 0.5;

// --- Time, statistics, memory ----------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Nearest-rank percentile; p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// The process's peak resident set over its whole life, in MiB.
double LifetimePeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Returns the heap the set-ups freed to the kernel, then resets the
// kernel's peak resident set mark (VmHWM) to the current resident set, so
// WindowPeakRssMib() covers the live state and what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// VmHWM, the peak resident set since the last ResetPeakRss(), in MiB.
double WindowPeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// --- Spans ------------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index in the same SpanLog; -1 for a root
  int64_t request = -1;  // cycle or request id; -1 for set-up and probes
};

// One thread's spans, kept in memory and written at exit. Pre-sized: a
// full log drops further spans (counted) instead of growing mid-window.
class SpanLog {
 public:
  SpanLog(bool enabled, size_t capacity) : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
  }

  int32_t Open(const char* name, int32_t parent = -1, int64_t request = -1) {
    const int64_t now = enabled_ ? NowNs() : 0;
    return Add(name, now, 0, parent, request);
  }
  void Close(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t request) {
    if (!enabled_) return -1;
    if (spans_.size() >= spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Durations (ms) of every span named `name`.
std::vector<double> SpanMs(const SpanLog& log, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (name == s.name) out.push_back(NsToMs(s.end_ns - s.start_ns));
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::pair<const char*, const SpanLog*>>&
                    logs) {
  std::ofstream out(path);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& [thread, log] : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  size_t base = 0;
  for (const auto& [thread, log] : logs) {
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base) + s.parent;
      out << "{\"id\": " << base + i << ", \"parent\": " << parent
          << ", \"thread\": \"" << thread << "\", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns - origin
          << ", \"end_ns\": " << s.end_ns - origin
          << ", \"request\": " << s.request << "}\n";
    }
    base += log->spans().size();
  }
  out.flush();
  return static_cast<bool>(out);
}

// --- The stack under test ---------------------------------------------------

// Everything one set-up builds. Members are destroyed in reverse order:
// the service before the server it fronts, the cache before the dataset
// whose table it indexes.
struct Stack {
  std::optional<lodes::LodesDataset> data;
  std::unique_ptr<store::Store> writer;
  std::unique_ptr<table::GroupByCache> cache;
  release::WorkloadReleaseConfig config;
  Rng noise_rng;
  // Tables of the epoch the server serves now, and their store names.
  std::vector<release::ReleasedTable> current;
  std::vector<std::string> table_names;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Service> service;
};

// One RunReleaseWorkload call, as its stats report it.
struct ReleaseSample {
  double wall_ms = 0.0;
  double base_ms = 0.0;
  double derive_ms = 0.0;
  double noise_ms = 0.0;
  double format_ms = 0.0;
  double persist_ms = 0.0;
  int full_table_scans = 0;
  int prefix_merges = 0;
  int exact_hits = 0;
};

struct ReleaseLog {
  std::vector<ReleaseSample> samples;
  uint64_t charges = 0;  // accountant ledger entries
  uint64_t refusals = 0;
};

// Releases the workload once into the writer store. The phases inside the
// call are placed as child spans from its stats: the base grouping and the
// roll-ups run first, persisting last, and the rest (charge, noise,
// format) is the release span's self time.
Result<std::vector<release::ReleasedTable>> TimedRelease(
    Stack& stack, SpanLog& log, int32_t parent, int64_t request,
    ReleaseLog& releases, uint64_t* epoch) {
  auto accountant = privacy::PrivacyAccountant::Create(
      stack.config.alpha, stack.config.epsilon * kEpsilonBudgetMultiple,
      kDeltaBudget, privacy::AdversaryModel::kWeak);
  if (!accountant.ok()) return accountant.status();
  release::WorkloadReleaseStats stats;
  const int64_t start = NowNs();
  auto result = release::RunReleaseWorkload(*stack.data, stack.config,
                                            &accountant.value(),
                                            stack.noise_rng,
                                            stack.cache.get(), &stats);
  const int64_t end = NowNs();
  releases.charges += accountant.value().ledger().size();
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) {
      ++releases.refusals;
    }
    return result.status();
  }
  const int32_t id = log.Add("release.run", start, end, parent, request);
  const auto ns = [](double ms) { return static_cast<int64_t>(ms * 1e6); };
  const int64_t base_end = start + ns(stats.compute.base_ms);
  log.Add("table.base", start, base_end, id, request);
  log.Add("table.derive", base_end, base_end + ns(stats.compute.derive_ms),
          id, request);
  log.Add("store.persist", end - ns(stats.persist_ms), end, id, request);
  if (releases.samples.size() < releases.samples.capacity()) {
    ReleaseSample s;
    s.wall_ms = NsToMs(end - start);
    s.base_ms = stats.compute.base_ms;
    s.derive_ms = stats.compute.derive_ms;
    s.noise_ms = stats.noise_ms;
    s.format_ms = stats.format_ms;
    s.persist_ms = stats.persist_ms;
    s.full_table_scans = stats.compute.full_table_scans;
    s.prefix_merges = stats.compute.prefix_merges;
    s.exact_hits = stats.compute.exact_hits;
    releases.samples.push_back(s);
  }
  *epoch = stats.persisted_epoch;
  return result;
}

// One set-up: a fresh store directory, the extract, the writer store, the
// first release (epoch 1), the server and the service.
Status SetUp(const WorkloadDef& workload, Scale scale, uint64_t seed,
             const std::string& dir, SpanLog& log, ReleaseLog& releases,
             Stack* stack) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const int32_t root = log.Open("setup");

  lodes::GeneratorConfig generator;
  generator.seed = seed;
  generator.target_jobs = scale.jobs;
  generator.num_places = scale.places;
  const int32_t gen = log.Open("lodes.generate", root);
  auto data = lodes::SyntheticLodesGenerator(generator).Generate();
  log.Close(gen);
  if (!data.ok()) return data.status();
  stack->data.emplace(std::move(data).value());

  auto writer = store::Store::Open(dir);
  if (!writer.ok()) return writer.status();
  stack->writer = std::move(writer).value();

  stack->config.workload = lodes::WorkloadSpec::PaperTabulations();
  stack->config.mechanism = eval::MechanismKind::kSmoothLaplace;
  stack->config.alpha = 0.1;
  stack->config.epsilon = 2.0;
  stack->config.delta = 0.05;
  // num_threads stays 1. On a 4-vCPU VM, two release threads made the
  // fused 2M-row scan both slower and much noisier (median 122 ms against
  // 72 ms on one thread), which would drown the changes this benchmark
  // exists to catch.
  stack->config.persist_to = stack->writer.get();
  if (workload.warm_cache) {
    stack->cache = std::make_unique<table::GroupByCache>();
  }
  stack->noise_rng = Rng(seed ^ 0x5E1EA5EULL);

  uint64_t epoch = 0;
  auto released = TimedRelease(*stack, log, root, -1, releases, &epoch);
  if (!released.ok()) return released.status();
  stack->current = std::move(released).value();
  auto info = stack->writer->GetEpoch(epoch);
  if (!info.ok()) return info.status();
  stack->table_names.clear();
  for (const store::TableMeta& meta : info.value()->tables) {
    stack->table_names.push_back(meta.name);
  }

  serve::ServerOptions server_options;
  // Without a live writer, epochs advance only through RefreshNow.
  server_options.poll_interval_ms = workload.live_writer ? kPollMs : 0;
  server_options.expected_fingerprint =
      serve::ExpectedFingerprint(stack->config);
  const int32_t open = log.Open("serve.open", root);
  auto server = serve::Server::Open(dir, server_options);
  log.Close(open);
  if (!server.ok()) return server.status();
  stack->server = std::move(server).value();
  if (stack->server->serving_epoch() != epoch) {
    return Status::Internal("server did not open on the released epoch");
  }

  serve::ServiceOptions service_options;
  service_options.queue_capacity = kQueueCapacity;
  service_options.num_workers = kServiceWorkers;
  auto service = serve::Service::Create(stack->server.get(), service_options);
  if (!service.ok()) return service.status();
  stack->service = std::move(service).value();
  log.Close(root);
  return Status::OK();
}

// --- Requests and their checks ---------------------------------------------

struct Cell {
  uint32_t table = 0;
  uint32_t row = 0;
};

std::vector<Cell> FlattenCells(
    const std::vector<release::ReleasedTable>& tables) {
  std::vector<Cell> cells;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t r = 0; r < tables[t].rows.size(); ++r) {
      cells.push_back({static_cast<uint32_t>(t), static_cast<uint32_t>(r)});
    }
  }
  return cells;
}

serve::LookupRequest MakeLookup(const Stack& stack, Cell cell) {
  const release::ReleasedTable& table = stack.current[cell.table];
  const std::vector<std::string>& row = table.rows[cell.row];
  serve::LookupRequest request;
  request.table = stack.table_names[cell.table];
  for (size_t c = 0; c + 1 < table.header.size(); ++c) {
    request.values[table.header[c]] = row[c];
  }
  return request;
}

// The reference ranking the served top-k must equal: released count
// descending (numerically), ties by attribute tuple ascending.
std::vector<serve::RankedCell> ReferenceTopK(
    const release::ReleasedTable& table, size_t k) {
  std::vector<uint32_t> order(table.rows.size());
  std::iota(order.begin(), order.end(), 0u);
  const size_t n = std::min(k, order.size());
  const auto attrs_less = [&table](uint32_t a, uint32_t b) {
    const auto& ra = table.rows[a];
    const auto& rb = table.rows[b];
    return std::lexicographical_compare(ra.begin(), ra.end() - 1, rb.begin(),
                                        rb.end() - 1);
  };
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(n),
                    order.end(), [&](uint32_t a, uint32_t b) {
                      const double ca =
                          std::strtod(table.rows[a].back().c_str(), nullptr);
                      const double cb =
                          std::strtod(table.rows[b].back().c_str(), nullptr);
                      if (ca != cb) return ca > cb;
                      return attrs_less(a, b);
                    });
  std::vector<serve::RankedCell> out(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& row = table.rows[order[i]];
    out[i].attrs.assign(row.begin(), row.end() - 1);
    out[i].count = row.back();
  }
  return out;
}

// What one run counted. A failed operation is any non-OK outcome; a
// mismatch is an OK answer that differs from the released tables.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t service_calls = 0;  // Lookup/TopK requests sent to the Service
};

// --- Timed windows ----------------------------------------------------------

struct Window {
  std::vector<double> latency_ms;  // per operation; +inf when it failed
  std::vector<double> commit_to_serve_ms;
  std::vector<double> sender_late_us;
  uint64_t overlapped = 0;  // requests sent while another was in flight
};

// release_cold / release_warm: back-to-back cycles of release + persist ->
// RefreshNow -> one lookup through the service, checked against the
// release. Latency is the whole cycle: extract to first answer.
void RunCycles(Stack& stack, int64_t end_ns, Rng& request_rng, SpanLog& log,
               ReleaseLog& releases, Window& window, Tally& tally) {
  // Every epoch releases the same cell domain in the same row order.
  const std::vector<Cell> cells = FlattenCells(stack.current);
  int64_t cycle = 0;
  do {
    ++tally.attempted;
    const int64_t start = NowNs();
    const int32_t root = log.Open("cycle", -1, cycle);
    uint64_t epoch = 0;
    auto released = TimedRelease(stack, log, root, cycle, releases, &epoch);
    bool ok = released.ok();
    if (ok) {
      const int64_t committed = NowNs();
      const int32_t refresh = log.Open("serve.refresh", root, cycle);
      ok = stack.server->RefreshNow().ok() &&
           stack.server->serving_epoch() == epoch;
      log.Close(refresh);
      window.commit_to_serve_ms.push_back(NsToMs(NowNs() - committed));
    }
    if (ok) {
      stack.current = std::move(released).value();
      const Cell cell = cells[static_cast<size_t>(request_rng.UniformInt(
          0, static_cast<int64_t>(cells.size()) - 1))];
      serve::LookupRequest request = MakeLookup(stack, cell);
      request.deadline_ms = stack.service->DeadlineAfterMs(kDeadlineMs);
      const int32_t call = log.Open("service.lookup", root, cycle);
      ++tally.service_calls;
      auto got = stack.service->Lookup(request);
      log.Close(call);
      ok = got.ok();
      const std::string& want = stack.current[cell.table].rows[cell.row].back();
      if (ok && got.value() != want) ++tally.mismatched;
    }
    log.Close(root);
    if (!ok) ++tally.failed;
    window.latency_ms.push_back(ok ? NsToMs(NowNs() - start)
                                   : std::numeric_limits<double>::infinity());
    ++cycle;
  } while (NowNs() < end_ns &&
           window.latency_ms.size() < window.latency_ms.capacity());
}

struct Answer {
  bool topk = false;
  Cell cell;  // the looked-up cell; for top-k only .table is used
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t returned_ns = 0;
  // The epoch the server served before the request was sent: the answer
  // may come from no older one.
  uint64_t min_epoch = 1;
  bool ok = false;
  std::string count;
  std::vector<serve::RankedCell> ranked;
};

// Epochs the live writer released during the window, by epoch id - 1.
// Pre-sized; slot e-1 is written by the writer thread only and read after
// it is joined.
struct EpochHistory {
  std::vector<std::vector<release::ReleasedTable>> tables;
  std::vector<int64_t> release_start_ns;
  uint64_t last = 1;
  bool failed = false;
};

// serve_mixed's writer: a cache-warm re-release every period_ns, then
// waits until the polling server serves it.
void WriterLoop(Stack& stack, int64_t start_ns, int64_t end_ns,
                int64_t period_ns, SpanLog& log, ReleaseLog& releases,
                EpochHistory& history,
                std::vector<double>& commit_to_serve_ms) {
  for (size_t e = 2; e <= history.tables.size(); ++e) {
    const int64_t due = start_ns + static_cast<int64_t>(e - 1) * period_ns;
    if (due >= end_ns) break;
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    history.release_start_ns[e - 1] = NowNs();
    uint64_t epoch = 0;
    auto released = TimedRelease(stack, log, -1, static_cast<int64_t>(e),
                                 releases, &epoch);
    if (!released.ok() || epoch != e) {
      history.failed = true;
      return;
    }
    history.tables[e - 1] = std::move(released).value();
    const int64_t committed = NowNs();
    if (!stack.server->WaitForEpoch(epoch, 10000)) {
      history.failed = true;
      return;
    }
    commit_to_serve_ms.push_back(NsToMs(NowNs() - committed));
    history.last = e;
  }
}

// One open-loop sender: claims the next request of the schedule, sleeps
// until kSpinNs before its due time, spins to it and sends it. While one
// sender waits for an answer the other takes the next request; when both
// wait, the next request goes out late, and its latency, which runs from
// the due time, includes the delay.
void SendRequests(Stack& stack, std::vector<Answer>& answers,
                  std::atomic<size_t>& next, SpanLog& log) {
  // Timer wake-ups land within ~20 us of the due time instead of ~70 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (size_t i = next.fetch_add(1); i < answers.size();
       i = next.fetch_add(1)) {
    Answer& a = answers[i];  // request i is claimed by this sender alone
    serve::LookupRequest lookup;
    serve::TopKRequest topk;
    if (a.topk) {
      topk.table = stack.table_names[a.cell.table];
      topk.k = kTopK;
    } else {
      lookup = MakeLookup(stack, a.cell);
    }
    a.min_epoch = stack.server->serving_epoch();
    int64_t now = NowNs();
    if (a.due_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(a.due_ns - now - kSpinNs));
    }
    while ((now = NowNs()) < a.due_ns) {
    }
    a.sent_ns = now;
    const int32_t span = log.Open(a.topk ? "service.topk" : "service.lookup",
                                  -1, static_cast<int64_t>(i));
    if (a.topk) {
      topk.deadline_ms = stack.service->DeadlineAfterMs(kDeadlineMs);
      auto got = stack.service->TopK(topk);
      a.ok = got.ok();
      if (a.ok) a.ranked = std::move(got).value();
    } else {
      lookup.deadline_ms = stack.service->DeadlineAfterMs(kDeadlineMs);
      auto got = stack.service->Lookup(lookup);
      a.ok = got.ok();
      if (a.ok) a.count = std::move(got).value();
    }
    log.Close(span);
    a.returned_ns = NowNs();
  }
}

// Requests sent while an earlier-sent one had not returned yet.
uint64_t CountOverlapped(const std::vector<Answer>& answers) {
  std::vector<std::pair<int64_t, int64_t>> calls;
  calls.reserve(answers.size());
  for (const Answer& a : answers) calls.emplace_back(a.sent_ns, a.returned_ns);
  std::sort(calls.begin(), calls.end());
  uint64_t overlapped = 0;
  int64_t busy_until = std::numeric_limits<int64_t>::min();
  for (const auto& [sent, returned] : calls) {
    if (sent < busy_until) ++overlapped;
    busy_until = std::max(busy_until, returned);
  }
  return overlapped;
}

// serve_read / serve_mixed: kSenders threads send kRequestsPerSecond
// requests with Poisson arrivals (uniform over cells; top-k with
// topk_share) for the window. serve_mixed adds the live writer.
void RunOpenLoop(const WorkloadDef& workload, Stack& stack, double seconds,
                 Rng& request_rng, std::vector<SpanLog>& sender_logs,
                 SpanLog& writer_log, ReleaseLog& releases, Window& window,
                 Tally& tally) {
  const std::vector<Cell> cells = FlattenCells(stack.current);
  const size_t n = static_cast<size_t>(
      std::max(1.0, std::floor(kRequestsPerSecond * seconds)));
  std::vector<Answer> answers(n);
  int64_t offset_ns = 0;
  for (Answer& a : answers) {
    a.topk = request_rng.Uniform() < workload.topk_share;
    a.cell = cells[static_cast<size_t>(request_rng.UniformInt(
        0, static_cast<int64_t>(cells.size()) - 1))];
    offset_ns += static_cast<int64_t>(
        request_rng.Exponential(1e9 / kRequestsPerSecond));
    a.due_ns = offset_ns;
  }

  const int64_t window_ns = offset_ns;
  // Windows shorter than five writer periods (the smoke run) still see
  // five re-releases.
  const int64_t writer_period_ns =
      std::max<int64_t>(1, std::min(kWriterPeriodNs, window_ns / 5));

  EpochHistory history;
  const size_t max_epochs =
      workload.live_writer
          ? static_cast<size_t>(window_ns / writer_period_ns) + 1
          : 1;
  history.tables.resize(max_epochs);
  history.release_start_ns.assign(max_epochs, 0);
  history.tables[0] = stack.current;

  const int64_t start_ns = NowNs() + 1000000;
  const int64_t end_ns = start_ns + window_ns;
  for (Answer& a : answers) a.due_ns += start_ns;
  std::thread writer;
  if (workload.live_writer) {
    // The writer thread alone touches stack's release state (rng, cache,
    // accountant, writer store) until it is joined below.
    writer = std::thread([&] {
      WriterLoop(stack, start_ns, end_ns, writer_period_ns, writer_log,
                 releases, history, window.commit_to_serve_ms);
    });
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back(SendRequests, std::ref(stack), std::ref(answers),
                         std::ref(next),
                         std::ref(sender_logs[static_cast<size_t>(s)]));
  }
  for (std::thread& t : senders) t.join();
  if (writer.joinable()) writer.join();

  for (const Answer& a : answers) {
    window.latency_ms.push_back(
        a.ok ? NsToMs(a.returned_ns - a.due_ns)
             : std::numeric_limits<double>::infinity());
    window.sender_late_us.push_back(
        static_cast<double>(a.sent_ns - a.due_ns) / 1e3);
  }
  window.overlapped = CountOverlapped(answers);

  // Each answer must equal its cell (or its table's top-k) in an epoch no
  // older than the one served before the request was sent, and whose
  // release began before the answer returned.
  std::map<std::pair<uint64_t, uint32_t>, std::vector<serve::RankedCell>>
      reference_topk;
  tally.attempted += n;
  tally.service_calls += n;
  for (const Answer& a : answers) {
    if (!a.ok) {
      ++tally.failed;
      continue;
    }
    bool matched = false;
    for (uint64_t e = a.min_epoch; e <= history.last && !matched; ++e) {
      if (e > 1 && history.release_start_ns[e - 1] >= a.returned_ns) break;
      const auto& tables = history.tables[e - 1];
      const release::ReleasedTable& table = tables[a.cell.table];
      if (a.topk) {
        auto [it, inserted] = reference_topk.try_emplace({e, a.cell.table});
        if (inserted) it->second = ReferenceTopK(table, kTopK);
        matched = a.ranked == it->second;
      } else {
        const auto& row = table.rows[a.cell.row];
        const auto& want = stack.current[a.cell.table].rows[a.cell.row];
        matched = std::equal(row.begin(), row.end() - 1, want.begin()) &&
                  row.back() == a.count;
      }
    }
    if (!matched) ++tally.mismatched;
  }
  if (workload.live_writer) {
    tally.attempted += history.last - 1;
    if (history.failed) ++tally.failed;
  }
  stack.current = history.tables[history.last - 1];
}

// --- Per-layer probes (--trace=1 only, after the window) --------------------

struct Probes {
  std::vector<double> read_epoch_ms;
  std::vector<double> index_build_ms;
  std::vector<double> snapshot_load_ms;
  double refresh_probe_us = 0.0;
  double lookup_direct_ns = 0.0;
  double topk_direct_us = 0.0;
  double call_us_p50 = 0.0;
  double closed_loop_rps = 0.0;
};

void RunProbes(Stack& stack, const std::string& dir, Rng& request_rng,
               SpanLog& log, ReleaseLog& releases, Window& window,
               Tally& tally, Probes& probes) {
  const std::vector<Cell> cells = FlattenCells(stack.current);
  constexpr size_t kDirect = 20000;
  std::vector<Cell> sample(kDirect);
  for (Cell& c : sample) {
    c = cells[static_cast<size_t>(request_rng.UniformInt(
        0, static_cast<int64_t>(cells.size()) - 1))];
  }
  std::vector<serve::LookupRequest> requests;
  requests.reserve(kDirect);
  for (const Cell& c : sample) requests.push_back(MakeLookup(stack, c));
  const auto want = [&](size_t i) -> const std::string& {
    return stack.current[sample[i].table].rows[sample[i].row].back();
  };

  // Direct snapshot lookups and top-k: the floor under a service call.
  {
    std::shared_ptr<const serve::Snapshot> pinned = stack.server->snapshot();
    const int32_t span = log.Open("serve.lookup_direct");
    const int64_t start = NowNs();
    for (size_t i = 0; i < kDirect; ++i) {
      auto table = pinned->Find(requests[i].table);
      auto got = table.ok() ? table.value()->LookupCell(requests[i].values)
                            : Result<std::string>(table.status());
      ++tally.attempted;
      if (!got.ok()) {
        ++tally.failed;
      } else if (got.value() != want(i)) {
        ++tally.mismatched;
      }
    }
    probes.lookup_direct_ns =
        static_cast<double>(NowNs() - start) / static_cast<double>(kDirect);
    log.Close(span);

    constexpr size_t kTopKReps = 2000;
    const serve::ServedTable& ranked = pinned->tables().back();
    const std::vector<serve::RankedCell> reference =
        ReferenceTopK(stack.current.back(), kTopK);
    const int32_t topk_span = log.Open("serve.topk_direct");
    const int64_t topk_start = NowNs();
    for (size_t i = 0; i < kTopKReps; ++i) {
      ++tally.attempted;
      if (ranked.TopK(kTopK) != reference) ++tally.mismatched;
    }
    probes.topk_direct_us = static_cast<double>(NowNs() - topk_start) /
                            1e3 / static_cast<double>(kTopKReps);
    log.Close(topk_span);
  }

  // One client, closed loop: the per-call cost of the service front.
  {
    constexpr size_t kCalls = 5000;
    std::vector<double> call_us;
    call_us.reserve(kCalls);
    for (size_t i = 0; i < kCalls; ++i) {
      const int32_t span =
          log.Open("service.call", -1, static_cast<int64_t>(i));
      const int64_t start = NowNs();
      auto got = stack.service->Lookup(requests[i]);
      call_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      log.Close(span);
      ++tally.attempted;
      ++tally.service_calls;
      if (!got.ok()) {
        ++tally.failed;
      } else if (got.value() != want(i)) {
        ++tally.mismatched;
      }
    }
    probes.call_us_p50 = Median(std::move(call_us));
  }

  // kServiceWorkers clients, closed loop, no pacing: saturated throughput.
  {
    constexpr int64_t kSaturateNs = 500000000;
    std::vector<Tally> counts(kServiceWorkers);
    std::vector<std::thread> clients;
    clients.reserve(kServiceWorkers);
    const int64_t start = NowNs();
    for (int c = 0; c < kServiceWorkers; ++c) {
      clients.emplace_back([&, c] {
        Tally local;
        for (size_t i = static_cast<size_t>(c); NowNs() - start < kSaturateNs;
             i = (i + kServiceWorkers) % kDirect) {
          auto got = stack.service->Lookup(requests[i]);
          ++local.attempted;
          if (!got.ok()) {
            ++local.failed;
          } else if (got.value() != want(i)) {
            ++local.mismatched;
          }
        }
        // eep-lint: disjoint-writes -- client c alone writes slot c
        counts[static_cast<size_t>(c)] = local;
      });
    }
    for (std::thread& t : clients) t.join();
    const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    uint64_t completed = 0;
    for (const Tally& count : counts) {
      tally.attempted += count.attempted;
      tally.service_calls += count.attempted;
      tally.failed += count.failed;
      tally.mismatched += count.mismatched;
      completed += count.attempted - count.failed;
    }
    probes.closed_loop_rps = static_cast<double>(completed) / elapsed_s;
  }

  // The store and snapshot read path on a bench-held read-only store.
  auto ro = store::Store::OpenReadOnly(dir);
  if (!ro.ok()) {
    ++tally.failed;
    return;
  }
  const uint64_t epoch = ro.value()->last_committed_epoch();
  constexpr int kReadReps = 3;
  for (int rep = 0; rep < kReadReps; ++rep) {
    int32_t span = log.Open("store.read_epoch");
    int64_t start = NowNs();
    auto tables = ro.value()->ReadEpoch(epoch);
    probes.read_epoch_ms.push_back(NsToMs(NowNs() - start));
    log.Close(span);
    ++tally.attempted;
    if (!tables.ok()) {
      ++tally.failed;
      continue;
    }
    for (size_t t = 0; t < tables.value().size(); ++t) {
      if (t >= stack.current.size() ||
          tables.value()[t].rows != stack.current[t].rows) {
        ++tally.mismatched;
      }
    }
    span = log.Open("serve.index_build");
    start = NowNs();
    for (store::TableData& data : tables.value()) {
      if (!serve::ServedTable::Build(std::move(data)).ok()) ++tally.failed;
    }
    probes.index_build_ms.push_back(NsToMs(NowNs() - start));
    log.Close(span);

    span = log.Open("serve.snapshot_load");
    start = NowNs();
    auto snapshot = serve::Snapshot::Load(*ro.value(), epoch);
    probes.snapshot_load_ms.push_back(NsToMs(NowNs() - start));
    log.Close(span);
    if (!snapshot.ok()) ++tally.failed;
  }
  {
    constexpr int kRefreshReps = 200;
    const int32_t span = log.Open("store.refresh_probe");
    const int64_t start = NowNs();
    for (int i = 0; i < kRefreshReps; ++i) {
      auto latest = ro.value()->Refresh();
      if (!latest.ok() || latest.value() != epoch) ++tally.failed;
    }
    probes.refresh_probe_us =
        static_cast<double>(NowNs() - start) / 1e3 / kRefreshReps;
    log.Close(span);
    tally.attempted += kRefreshReps;
  }

  // One more commit, picked up by a probe server's RefreshNow, so every
  // workload reports commit-to-serve (serve_read commits nothing else).
  serve::ServerOptions options;
  options.poll_interval_ms = 0;
  options.expected_fingerprint = serve::ExpectedFingerprint(stack.config);
  auto probe_server = serve::Server::Open(dir, options);
  ++tally.attempted;
  if (!probe_server.ok()) {
    ++tally.failed;
    return;
  }
  uint64_t next = 0;
  auto released = TimedRelease(stack, log, -1, -1, releases, &next);
  if (!released.ok()) {
    ++tally.failed;
    return;
  }
  const int64_t committed = NowNs();
  const int32_t span = log.Open("serve.refresh");
  const bool served = probe_server.value()->RefreshNow().ok() &&
                      probe_server.value()->serving_epoch() == next;
  log.Close(span);
  window.commit_to_serve_ms.push_back(NsToMs(NowNs() - committed));
  if (!served) ++tally.failed;
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed + tally.mismatched);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "bench_e2e: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "bench_e2e: --workload must be one of release_cold, "
                 "release_warm, serve_read, serve_mixed\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string spans_path = flags.GetString("spans", "");
  const std::string dir = flags.GetString("dir", "bench_e2e_store");
  const bool smoke = flags.GetString("scale", "full") == "smoke";
  if (!(seconds > 0.0) || seconds > 600.0) {
    std::fprintf(stderr, "bench_e2e: --seconds must be in (0, 600]\n");
    return 2;
  }
  const Scale scale = smoke ? kSmoke : workload->large ? kLarge : kSmall;

  // Capacity for every span and release sample a run can make: at most one
  // release cycle per ms, or the request schedule, plus set-up and probes.
  const size_t max_ops = static_cast<size_t>(
      seconds * std::max(1000.0, kRequestsPerSecond)) + 64;
  SpanLog log(trace, max_ops * 8 + 50000);
  SpanLog writer_log(trace, 4096);
  std::vector<SpanLog> sender_logs;
  sender_logs.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    sender_logs.emplace_back(trace && !workload->cycles, max_ops);
  }
  ReleaseLog releases;
  releases.samples.reserve(max_ops + 64);

  // Set up kSetups times; keep the last stack for the timed window.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack = std::make_unique<Stack>();
    const int64_t start = NowNs();
    const Status status = SetUp(*workload, scale, seed, dir, log, releases,
                                stack.get());
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      return Fail("set-up", status);
    }
  }
  const double setup_peak_mib = LifetimePeakRssMib();
  if (!ResetPeakRss()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return Fail("peak resident set reset",
                Status::IOError("cannot write /proc/self/clear_refs"));
  }

  // Staleness of the serving epoch, sampled through the window.
  std::atomic<bool> sampling{true};
  std::atomic<int64_t> max_epoch_age_ms{0};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const int64_t age = stack->service->Health().server.epoch_age_ms;
      if (age > max_epoch_age_ms.load(std::memory_order_relaxed)) {
        max_epoch_age_ms.store(age, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kSamplerPeriodMs));
    }
  });

  Rng request_rng(seed ^ 0x4E0E57ULL);
  Window window;
  window.latency_ms.reserve(max_ops);
  window.sender_late_us.reserve(max_ops);
  window.commit_to_serve_ms.reserve(max_ops + 64);
  Tally tally;
  if (workload->cycles) {
    const int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    RunCycles(*stack, end_ns, request_rng, log, releases, window, tally);
  } else {
    RunOpenLoop(*workload, *stack, seconds, request_rng, sender_logs,
                writer_log, releases, window, tally);
  }
  const double peak_rss_mib = WindowPeakRssMib();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  Probes probes;
  if (trace) {
    RunProbes(*stack, dir, request_rng, log, releases, window, tally, probes);
  }

  const serve::ServiceStats service = stack->service->stats();
  const serve::Server::Stats server = stack->server->stats();
  // Every request ends in exactly one outcome, and only completed ones pin
  // a snapshot.
  const bool reconciled =
      service.admitted + service.shed + service.expired_at_admission ==
          tally.service_calls &&
      service.completed + service.expired_in_queue == service.admitted &&
      service.snapshot_pins == service.completed;
  const bool correct = tally.mismatched == 0 && reconciled;

  const double sender_late_us_p99 =
      window.sender_late_us.empty() ? 0.0
                                    : Percentile(window.sender_late_us, 0.99);
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", Percentile(window.latency_ms, 0.50), "ms"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
    };
  } else {
    std::vector<double> scan_ms, derive_ms, wall_ms, self_ms, noise_ms,
        format_ms, persist_ms;
    double scans = 0, prefix_merges = 0, exact_hits = 0;
    for (const ReleaseSample& s : releases.samples) {
      if (s.full_table_scans > 0) scan_ms.push_back(s.base_ms);
      derive_ms.push_back(s.derive_ms);
      wall_ms.push_back(s.wall_ms);
      self_ms.push_back(s.wall_ms - s.base_ms - s.derive_ms - s.persist_ms);
      noise_ms.push_back(s.noise_ms);
      format_ms.push_back(s.format_ms);
      persist_ms.push_back(s.persist_ms);
      scans += s.full_table_scans;
      prefix_merges += s.prefix_merges;
      exact_hits += s.exact_hits;
    }
    double epoch_bytes = 0.0;
    double cells = 0.0;
    if (auto info = stack->writer->CurrentEpoch(); info.ok()) {
      for (const store::TableMeta& meta : info.value()->tables) {
        epoch_bytes += static_cast<double>(meta.size_bytes);
        cells += static_cast<double>(meta.num_rows);
      }
    }
    const double lookup_direct_us = probes.lookup_direct_ns / 1e3;
    metrics = {
        {"lodes.generate_ms", Median(SpanMs(log, "lodes.generate")), "ms"},
        {"table.scan_ms", Median(scan_ms), "ms"},
        {"table.derive_ms", Median(derive_ms), "ms"},
        {"table.full_table_scans", scans, "count"},
        {"table.prefix_merges", prefix_merges, "count"},
        {"table.exact_hits", exact_hits, "count"},
        {"release.releases", static_cast<double>(releases.samples.size()),
         "count"},
        {"release.wall_ms", Median(wall_ms), "ms"},
        {"release.self_ms", Median(self_ms), "ms"},
        {"release.noise_cpu_ms", Median(noise_ms), "ms"},
        {"release.format_cpu_ms", Median(format_ms), "ms"},
        {"privacy.charges", static_cast<double>(releases.charges), "count"},
        {"privacy.refusals", static_cast<double>(releases.refusals), "count"},
        {"store.persist_ms", Median(persist_ms), "ms"},
        {"store.epoch_bytes", epoch_bytes, "bytes"},
        {"store.bytes_per_cell", cells > 0 ? epoch_bytes / cells : 0.0,
         "bytes"},
        {"store.read_epoch_ms", Median(probes.read_epoch_ms), "ms"},
        {"store.refresh_probe_us", probes.refresh_probe_us, "us"},
        {"serve.commit_to_serve_ms", Median(window.commit_to_serve_ms), "ms"},
        {"serve.snapshot_load_ms", Median(probes.snapshot_load_ms), "ms"},
        {"serve.index_build_ms", Median(probes.index_build_ms), "ms"},
        {"serve.swaps", static_cast<double>(server.swaps), "count"},
        {"serve.polls", static_cast<double>(server.polls), "count"},
        {"serve.refresh_failures", static_cast<double>(server.failures),
         "count"},
        {"serve.epoch_age_ms_max",
         static_cast<double>(max_epoch_age_ms.load()), "ms"},
        {"serve.lookup_direct_ns", probes.lookup_direct_ns, "ns"},
        {"serve.topk_direct_us", probes.topk_direct_us, "us"},
        {"service.call_us_p50", probes.call_us_p50, "us"},
        {"service.overhead_us", probes.call_us_p50 - lookup_direct_us, "us"},
        {"service.closed_loop_rps", probes.closed_loop_rps, "1/s"},
        {"service.admitted", static_cast<double>(service.admitted), "count"},
        {"service.completed", static_cast<double>(service.completed),
         "count"},
        {"service.shed", static_cast<double>(service.shed), "count"},
        {"service.expired",
         static_cast<double>(service.expired_at_admission +
                             service.expired_in_queue),
         "count"},
        {"service.snapshot_pins", static_cast<double>(service.snapshot_pins),
         "count"},
        {"rss.setup_peak_mib", setup_peak_mib, "MiB"},
        {"rss.window_peak_mib", peak_rss_mib, "MiB"},
        {"load.overlapped_requests", static_cast<double>(window.overlapped),
         "count"},
        {"load.sender_late_us_p99", sender_late_us_p99, "us"},
        {"trace.latency_p50_ms", Percentile(window.latency_ms, 0.50), "ms"},
        {"trace.latency_p90_ms", Percentile(window.latency_ms, 0.90), "ms"},
        {"trace.latency_p99_ms", Percentile(window.latency_ms, 0.99), "ms"},
        {"trace.latency_samples",
         static_cast<double>(window.latency_ms.size()), "count"},
    };
  }

  std::printf("bench_e2e %s seed=%llu: %zu operations in the window, "
              "setup median %.3f s, latency p50 %.4f ms p90 %.4f ms p99 "
              "%.4f ms, sender late p99 %.1f us, %llu requests sent while "
              "another was in flight, outcome accounting %s, "
              "%llu mismatched\n",
              workload->name, static_cast<unsigned long long>(seed),
              window.latency_ms.size(), Median(setup_s),
              Percentile(window.latency_ms, 0.50),
              Percentile(window.latency_ms, 0.90),
              Percentile(window.latency_ms, 0.99), sender_late_us_p99,
              static_cast<unsigned long long>(window.overlapped),
              reconciled ? "reconciled" : "BROKEN",
              static_cast<unsigned long long>(tally.mismatched));
  std::vector<std::pair<const char*, const SpanLog*>> logs = {
      {"main", &log}, {"writer", &writer_log}};
  for (int s = 0; s < kSenders; ++s) {
    logs.emplace_back(kSenderNames[s], &sender_logs[static_cast<size_t>(s)]);
  }
  uint64_t dropped = 0;
  for (const auto& entry : logs) dropped += entry.second->dropped();
  if (dropped > 0) {
    std::printf("span buffers full: %llu spans dropped\n",
                static_cast<unsigned long long>(dropped));
  }
  bool spans_written = true;
  if (trace && !spans_path.empty()) {
    spans_written = WriteSpans(spans_path, logs);
    if (!spans_written) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", spans_path.c_str());
    }
  }

  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  PrintResult(correct, tally, metrics);
  return correct && tally.failed == 0 && spans_written ? 0 : 1;
}
