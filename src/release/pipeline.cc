#include "release/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/math_util.h"
#include "table/partitioned_group_by.h"

namespace eep::release {

namespace {

/// Work shared by the shard workers: everything here is read-only during
/// the parallel phase except `rows` (disjoint slots) and the error state.
struct ShardedRelease {
  bool round_counts = true;
  const lodes::MarginalQuery* query = nullptr;
  const mechanisms::CountMechanism* mechanism = nullptr;
  /// Roots the per-shard substreams; never advanced after construction.
  Rng noise_root;
  size_t shard_size = 0;
  size_t num_shards = 0;
  std::vector<std::vector<std::string>>* rows = nullptr;
  /// Memoized code->label table per marginal column (the dictionaries'
  /// own value vectors). Dictionary::ValueOf allocates a fresh string and
  /// bounds-checks per call; at paper scale that per-cell-per-column cost
  /// masks the batched sampling, so shards copy labels straight out of
  /// these read-only tables instead.
  std::vector<const std::vector<std::string>*> labels;

  std::atomic<size_t> next_shard{0};
  /// Per-phase CPU time summed across shards (see WorkloadReleaseStats).
  std::atomic<int64_t> noise_ns{0};
  std::atomic<int64_t> format_ns{0};
  std::mutex error_mu;
  Status first_error = Status::OK();

  ShardedRelease() : noise_root(0) {}

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
  }

  bool Failed() {
    std::lock_guard<std::mutex> lock(error_mu);
    return !first_error.ok();
  }

  /// Releases and formats the cells of one shard into their row slots.
  Status RunShard(size_t shard) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto& cells = query->cells();
    const size_t begin = shard * shard_size;
    const size_t end = std::min(cells.size(), begin + shard_size);

    // Batch the mechanism sampling: one CellQuery vector, one substream,
    // one ReleaseBatch call per shard. Cells and grouped cells are both
    // key-sorted, so a single merge cursor finds every shard cell's
    // contribution list without per-cell binary searches.
    static const std::vector<table::EstabContribution> kNoContribs;
    const auto& gcells = query->grouped().cells;
    auto git = std::lower_bound(
        gcells.begin(), gcells.end(), cells[begin].key,
        [](const table::GroupedCell& g, uint64_t k) { return g.key < k; });
    std::vector<mechanisms::CellQuery> batch;
    batch.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      mechanisms::CellQuery cq;
      cq.true_count = cells[i].count;
      cq.x_v = cells[i].x_v;
      while (git != gcells.end() && git->key < cells[i].key) ++git;
      cq.contributions = (git != gcells.end() && git->key == cells[i].key)
                             ? &git->contributions
                             : &kNoContribs;
      batch.push_back(cq);
    }
    Rng shard_rng = noise_root.Substream(shard);
    std::vector<double> released;
    EEP_RETURN_NOT_OK(mechanism->ReleaseBatch(batch, shard_rng, &released));
    if (released.size() != batch.size()) {
      return Status::Internal(
          "ReleaseBatch produced " + std::to_string(released.size()) +
          " values for " + std::to_string(batch.size()) + " cells");
    }
    const auto t1 = std::chrono::steady_clock::now();

    const auto& codec = query->codec();
    const size_t width = labels.size() + 1;
    for (size_t i = begin; i < end; ++i) {
      std::vector<std::string> row;
      row.reserve(width);
      const auto codes = codec.Unpack(cells[i].key);
      for (size_t c = 0; c < codes.size(); ++c) {
        const std::vector<std::string>& column_labels = *labels[c];
        if (codes[c] >= column_labels.size()) {
          return Status::Internal("cell key code outside dictionary");
        }
        row.push_back(column_labels[codes[c]]);
      }
      const double value = released[i - begin];
      if (round_counts) {
        row.push_back(std::to_string(RoundNonNegative(value)));
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", value);
        row.emplace_back(buf);
      }
      (*rows)[i] = std::move(row);
    }
    const auto t2 = std::chrono::steady_clock::now();
    noise_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    format_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count(),
        std::memory_order_relaxed);
    return Status::OK();
  }

  /// Claims shards until the queue drains or another worker fails.
  void Worker() {
    for (size_t shard = next_shard.fetch_add(1); shard < num_shards;
         shard = next_shard.fetch_add(1)) {
      if (Failed()) return;
      if (Status st = RunShard(shard); !st.ok()) {
        RecordError(st);
        return;
      }
    }
  }
};

/// The noise + formatting stage of one marginal: shards the query's
/// cells, draws shard k's noise from Substream(k) of `noise_root`, and
/// formats labeled rows into the workload's table `index`. `noise_root`
/// must already fold in the shard size (see the derivation comment in
/// RunReleaseWorkload); timing, in ns of CPU summed across shard workers,
/// accumulates into the counters.
Result<ReleasedTable> ReleaseQueryCells(
    const lodes::LodesDataset& data, const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, bool round_counts,
    size_t shard_size, int requested_threads, Rng noise_root,
    size_t index, int64_t* noise_ns, int64_t* format_ns) {
  ReleasedTable out;
  out.header = query.spec().AllColumns();
  // "m<i>:<columns>": the index keeps names unique even if two marginals
  // share a column list; the attribute columns keep them human-readable.
  out.name = "m" + std::to_string(index);
  for (size_t c = 0; c < out.header.size(); ++c) {
    out.name += (c == 0 ? ":" : ",");
    out.name += out.header[c];
  }
  out.header.push_back("count");
  out.rows.assign(query.cells().size(), {});

  ShardedRelease shared;
  shared.round_counts = round_counts;
  shared.query = &query;
  shared.mechanism = &mechanism;
  shared.noise_root = noise_root;
  shared.shard_size = shard_size;
  shared.num_shards = (query.cells().size() + shard_size - 1) / shard_size;
  shared.rows = &out.rows;
  for (size_t column_index : query.codec().column_indices()) {
    const auto& field = data.worker_full().schema().field(column_index);
    if (field.dictionary == nullptr) {
      return Status::Internal("marginal column has no dictionary");
    }
    shared.labels.push_back(&field.dictionary->values());
  }

  const int threads = static_cast<int>(std::clamp<size_t>(
      static_cast<size_t>(requested_threads), 1,
      std::max<size_t>(1, shared.num_shards)));
  table::RunOnWorkers(threads, [&shared](int) { shared.Worker(); });
  if (!shared.first_error.ok()) return shared.first_error;
  *noise_ns += shared.noise_ns.load(std::memory_order_relaxed);
  *format_ns += shared.format_ns.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

Result<std::vector<ReleasedTable>> RunReleaseWorkload(
    const lodes::LodesDataset& data, const WorkloadReleaseConfig& config,
    privacy::PrivacyAccountant* accountant, Rng& rng,
    table::GroupByCache* cache, WorkloadReleaseStats* stats) {
  EEP_RETURN_NOT_OK(config.workload.Validate());
  if (config.shard_size < 1) {
    return Status::InvalidArgument("shard_size must be >= 1");
  }
  const int requested_threads =
      table::ResolveGroupByThreads(config.num_threads);

  // One fused pass answers every marginal (lodes/workload.h): at most one
  // full-table group-by, zero when `cache` already covers the workload.
  lodes::WorkloadComputeStats compute_stats;
  EEP_ASSIGN_OR_RETURN(
      std::vector<lodes::MarginalQuery> queries,
      lodes::ComputeWorkload(data, config.workload, requested_threads, cache,
                             &compute_stats));

  EEP_ASSIGN_OR_RETURN(auto mechanism,
                       eval::MakeMechanism(config.mechanism, config.alpha,
                                           config.epsilon, config.delta));
  if (accountant != nullptr && accountant->alpha() != config.alpha) {
    return Status::InvalidArgument(
        "release alpha does not match the accountant's alpha");
  }

  // Mechanism feasibility is validated above (parameter checks draw no
  // noise); the whole workload is then charged atomically BEFORE any noise
  // is drawn: a BUDGET refusal charges nothing and releases nothing (unlike
  // N sequential one-marginal releases, which deliver — and charge — every
  // marginal before the refusal). Charging first is the safe order: noise
  // must never be computed without budget backing it, so if a mechanism
  // fails on some cell AFTER this point the charged budget is honestly
  // forfeit (noise was already drawn) and no tables are returned.
  if (accountant != nullptr) {
    std::vector<privacy::PrivacyAccountant::MarginalCharge> charges;
    charges.reserve(queries.size());
    for (const lodes::MarginalQuery& query : queries) {
      privacy::PrivacyAccountant::MarginalCharge charge;
      charge.description = config.description + " [";
      for (size_t c = 0; c < query.codec().columns().size(); ++c) {
        if (c > 0) charge.description += ",";
        charge.description += query.codec().columns()[c];
      }
      charge.description += "]";
      charge.epsilon = config.epsilon;
      charge.worker_domain_size = query.WorkerDomainSize();
      charge.delta = config.delta;
      charges.push_back(std::move(charge));
    }
    EEP_RETURN_NOT_OK(accountant->ChargeMarginalWorkload(charges));
  }

  // Marginal i draws exactly ONE value from the caller's rng to root its
  // shard substreams, so the caller's stream advances the same way
  // regardless of sharding, thread count or how the marginals are split
  // into workloads, and shard k's noise is a pure function of (that draw,
  // shard_size, k). Folding shard_size into the root (rather than only
  // into the cell->shard assignment) keeps releases with different shard
  // sizes free of shared noise prefixes: without it, shard 0 of a
  // 64-cell-shard release would replay the first 64 draws of shard 0 of a
  // 4096-cell-shard release.
  std::vector<ReleasedTable> tables;
  tables.reserve(queries.size());
  int64_t noise_ns = 0;
  int64_t format_ns = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Rng noise_root = Rng(rng.NextUint64())
                               .Substream(static_cast<uint64_t>(
                                   config.shard_size));
    EEP_ASSIGN_OR_RETURN(
        ReleasedTable table,
        ReleaseQueryCells(data, queries[i], *mechanism, config.round_counts,
                          static_cast<size_t>(config.shard_size),
                          requested_threads, noise_root, i, &noise_ns,
                          &format_ns));
    tables.push_back(std::move(table));
  }

  // Optional persist step: the finished tables become one new store epoch,
  // committed atomically AFTER all noise is drawn — so persisting cannot
  // perturb the determinism contract above, and a crash mid-persist leaves
  // the store serving its previous epoch (store/store.h).
  double persist_ms = 0.0;
  uint64_t persisted_epoch = 0;
  std::string persisted_fingerprint;
  if (config.persist_to != nullptr) {
    const auto persist_start = std::chrono::steady_clock::now();
    persisted_fingerprint = store::WorkloadFingerprint(
        config.workload, eval::MechanismKindName(config.mechanism),
        config.alpha, config.epsilon, config.delta);
    EEP_ASSIGN_OR_RETURN(persisted_epoch,
                         config.persist_to->CommitEpoch(persisted_fingerprint,
                                                        tables));
    persist_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - persist_start)
                     .count();
  }

  if (stats != nullptr) {
    stats->compute = std::move(compute_stats);
    stats->noise_ms = static_cast<double>(noise_ns) * 1e-6;
    stats->format_ms = static_cast<double>(format_ns) * 1e-6;
    stats->persist_ms = persist_ms;
    stats->persisted_epoch = persisted_epoch;
    stats->persisted_fingerprint = std::move(persisted_fingerprint);
  }
  return tables;
}

}  // namespace eep::release
