#include "release/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <string_view>

#include "common/math_util.h"
#include "table/partitioned_group_by.h"

namespace eep::release {

namespace {

using Clock = std::chrono::steady_clock;

int64_t Nanos(Clock::duration elapsed) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
      .count();
}

/// Rounded counts below this are interned through a per-worker bitmap and
/// a dense rank table; the rare larger ones through a sorted list.
constexpr int64_t kDenseCounts = int64_t{1} << 16;

/// What one worker's shards produced, for the dictionaries: per attribute
/// column a flag per dataset code, and for rounded releases a bitmap of
/// the counts below kDenseCounts plus every larger count.
struct SeenValues {
  std::vector<std::vector<uint8_t>> codes;
  std::vector<uint64_t> counts;
  std::vector<int64_t> large_counts;
};

/// Work shared by the shard workers. A marginal is released in two passes
/// over its shards with the dictionaries built in between: everything here
/// is read-only during a pass except the error state, each worker's own
/// SeenValues, and the row slots of the shard being worked on (codes,
/// counts, texts, rows).
struct ShardedRelease {
  bool round_counts = true;
  const lodes::MarginalQuery* query = nullptr;
  const mechanisms::CountMechanism* mechanism = nullptr;
  /// Roots the per-shard substreams; never advanced after construction.
  Rng noise_root;
  size_t shard_size = 0;
  size_t num_shards = 0;
  /// The codec's radices: attribute columns, most significant first.
  std::vector<uint32_t> radices;
  /// The table being built: the first pass leaves each attribute code as
  /// the dataset code, the second replaces it by its dictionary rank.
  store::CodedTable* coded = nullptr;
  std::vector<std::vector<std::string>>* rows = nullptr;
  /// Each row's published value from the first pass: its rounded count,
  /// or its "%.4f" text when counts are not rounded.
  std::vector<int64_t> counts;
  std::vector<std::string> texts;
  std::vector<SeenValues> seen;  ///< One per worker.
  /// Dataset code -> dictionary rank, per attribute column.
  std::vector<std::vector<uint32_t>> ranks;
  /// Rounded count -> dictionary rank: dense below kDenseCounts, and for
  /// the sorted distinct larger counts a parallel vector.
  std::vector<uint32_t> count_ranks;
  std::vector<int64_t> large_counts;
  std::vector<uint32_t> large_ranks;

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

  /// First pass: draws one shard's noise, and records each row's dataset
  /// codes and published value as `seen` by this worker.
  Status NoiseAndDecode(size_t shard, SeenValues& seen) {
    const auto t0 = Clock::now();
    const auto& cells = query->cells();
    const size_t begin = shard * shard_size;
    const size_t end = std::min(cells.size(), begin + shard_size);

    // Batch the mechanism sampling: one CellQuery vector, one substream,
    // one ReleaseBatch call per shard.
    std::vector<mechanisms::CellQuery> batch;
    batch.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      mechanisms::CellQuery cq;
      cq.true_count = cells[i].count;
      cq.x_v = cells[i].x_v;
      cq.contributions = query->ContributionsOf(cells[i]);
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
    const auto t1 = Clock::now();

    // Keys increase, so a key one past its predecessor steps the previous
    // codes like an odometer; any other key is unpacked digit by digit.
    const size_t attrs = radices.size();
    std::vector<uint32_t> digits(attrs);
    for (size_t i = begin; i < end; ++i) {
      const uint64_t key = cells[i].key;
      if (i > begin && key == cells[i - 1].key + 1) {
        size_t c = attrs - 1;
        while (++digits[c] == radices[c]) digits[c--] = 0;
      } else {
        uint64_t rest = key;
        for (size_t c = attrs; c-- > 0;) {
          digits[c] = static_cast<uint32_t>(rest % radices[c]);
          rest /= radices[c];
        }
      }
      for (size_t c = 0; c < attrs; ++c) {
        coded->columns[c].codes[i] = digits[c];
        seen.codes[c][digits[c]] = 1;
      }
      const double value = released[i - begin];
      if (round_counts) {
        const int64_t count = RoundNonNegative(value);
        counts[i] = count;
        if (count < kDenseCounts) {
          seen.counts[static_cast<size_t>(count) >> 6] |= uint64_t{1}
                                                          << (count & 63);
        } else {
          seen.large_counts.push_back(count);
        }
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", value);
        texts[i] = buf;
      }
    }
    noise_ns.fetch_add(Nanos(t1 - t0), std::memory_order_relaxed);
    format_ns.fetch_add(Nanos(Clock::now() - t1), std::memory_order_relaxed);
    return Status::OK();
  }

  /// Between the passes: every column's dictionary is its distinct values
  /// in byte order, exactly what store::EncodeTable of the rendered rows
  /// builds. `labels` holds each attribute column's dataset labels, indexed
  /// by dataset code. Work is per distinct value, not per row.
  void BuildDictionaries(
      const std::vector<const std::vector<std::string>*>& labels) {
    for (size_t c = 0; c < radices.size(); ++c) {
      std::vector<uint32_t> present;
      for (uint32_t code = 0; code < radices[c]; ++code) {
        for (const SeenValues& s : seen) {
          if (s.codes[c][code] != 0) {
            present.push_back(code);
            break;
          }
        }
      }
      const std::vector<std::string>& column_labels = *labels[c];
      std::sort(present.begin(), present.end(),
                [&column_labels](uint32_t a, uint32_t b) {
                  return column_labels[a] < column_labels[b];
                });
      std::vector<std::string>& dict = coded->columns[c].dict;
      ranks[c].assign(radices[c], 0);
      for (uint32_t rank = 0; rank < present.size(); ++rank) {
        ranks[c][present[rank]] = rank;
        dict.push_back(column_labels[present[rank]]);
      }
    }

    std::vector<std::string>& dict = coded->columns.back().dict;
    if (!round_counts) {
      // Interned by text: two values with one "%.4f" text share a code.
      std::vector<std::string_view> distinct(texts.begin(), texts.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      dict.assign(distinct.begin(), distinct.end());
      return;
    }
    // Interned by count. Distinct counts ascend numerically (dense ones
    // first), then take their byte-order ranks from their texts.
    std::vector<int64_t> distinct;
    for (size_t word = 0; word < kDenseCounts / 64; ++word) {
      uint64_t bits = 0;
      for (const SeenValues& s : seen) bits |= s.counts[word];
      for (; bits != 0; bits &= bits - 1) {
        distinct.push_back(static_cast<int64_t>(word * 64) +
                           __builtin_ctzll(bits));
      }
    }
    const size_t dense = distinct.size();
    for (const SeenValues& s : seen) {
      large_counts.insert(large_counts.end(), s.large_counts.begin(),
                          s.large_counts.end());
    }
    std::sort(large_counts.begin(), large_counts.end());
    large_counts.erase(std::unique(large_counts.begin(), large_counts.end()),
                       large_counts.end());
    distinct.insert(distinct.end(), large_counts.begin(), large_counts.end());

    std::vector<std::string> text(distinct.size());
    for (size_t j = 0; j < distinct.size(); ++j) {
      text[j] = std::to_string(distinct[j]);
    }
    std::vector<uint32_t> order(distinct.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&text](uint32_t a, uint32_t b) {
      return text[a] < text[b];
    });
    count_ranks.assign(dense == 0 ? 0 : distinct[dense - 1] + 1, 0);
    large_ranks.resize(large_counts.size());
    dict.reserve(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
      const uint32_t j = order[rank];
      if (j < dense) {
        count_ranks[distinct[j]] = rank;
      } else {
        large_ranks[j - dense] = rank;
      }
      dict.push_back(std::move(text[j]));
    }
  }

  /// Second pass: codes one shard's rows by dictionary rank and renders
  /// them into their row slots.
  void CodeAndRender(size_t shard) {
    const auto t0 = Clock::now();
    const size_t begin = shard * shard_size;
    const size_t end = std::min<size_t>(coded->num_rows, begin + shard_size);
    for (size_t c = 0; c < radices.size(); ++c) {
      std::vector<uint32_t>& codes = coded->columns[c].codes;
      for (size_t i = begin; i < end; ++i) codes[i] = ranks[c][codes[i]];
    }
    store::CodedColumn& value = coded->columns.back();
    for (size_t i = begin; i < end; ++i) {
      if (!round_counts) {
        value.codes[i] = static_cast<uint32_t>(
            std::lower_bound(value.dict.begin(), value.dict.end(),
                             texts[i]) -
            value.dict.begin());
      } else if (counts[i] < kDenseCounts) {
        value.codes[i] = count_ranks[static_cast<size_t>(counts[i])];
      } else {
        value.codes[i] = large_ranks[static_cast<size_t>(
            std::lower_bound(large_counts.begin(), large_counts.end(),
                             counts[i]) -
            large_counts.begin())];
      }
    }
    store::RenderRows(*coded, begin, end, rows);
    format_ns.fetch_add(Nanos(Clock::now() - t0), std::memory_order_relaxed);
  }

  /// Claims shards for `pass` until the queue drains or a worker fails.
  template <typename Pass>
  void Claim(Pass&& pass) {
    for (size_t shard = next_shard.fetch_add(1); shard < num_shards;
         shard = next_shard.fetch_add(1)) {
      if (Failed()) return;
      if (Status st = pass(shard); !st.ok()) {
        RecordError(st);
        return;
      }
    }
  }
};

/// The noise + coding stage of one marginal: shards the query's cells,
/// draws shard k's noise from Substream(k) of `noise_root`, builds the
/// workload's table `index` as *coded and renders its labeled rows from
/// it. `noise_root` must already fold in the shard size (see the
/// derivation comment in RunReleaseWorkload); timing, in ns of CPU summed
/// across shard workers, accumulates into the counters.
Result<ReleasedTable> ReleaseQueryCells(
    const lodes::LodesDataset& data, const lodes::MarginalQuery& query,
    const mechanisms::CountMechanism& mechanism, bool round_counts,
    size_t shard_size, int requested_threads, Rng noise_root,
    size_t index, store::CodedTable* coded, int64_t* noise_ns,
    int64_t* format_ns) {
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
  const size_t n = query.cells().size();
  out.rows.resize(n);
  coded->name = out.name;
  coded->header = out.header;
  coded->num_rows = n;
  coded->columns.assign(out.header.size(), {});
  for (store::CodedColumn& column : coded->columns) column.codes.resize(n);

  ShardedRelease shared;
  shared.round_counts = round_counts;
  shared.query = &query;
  shared.mechanism = &mechanism;
  shared.noise_root = noise_root;
  shared.shard_size = shard_size;
  shared.num_shards = (n + shard_size - 1) / shard_size;
  shared.radices = query.codec().radices();
  shared.coded = coded;
  shared.rows = &out.rows;
  std::vector<const std::vector<std::string>*> labels;
  for (size_t c = 0; c < shared.radices.size(); ++c) {
    const size_t column_index = query.codec().column_indices()[c];
    const auto& field = data.worker_full().schema().field(column_index);
    if (field.dictionary == nullptr ||
        field.dictionary->values().size() < shared.radices[c]) {
      return Status::Internal("marginal column has no dictionary to label "
                              "its codes");
    }
    labels.push_back(&field.dictionary->values());
  }
  shared.ranks.resize(shared.radices.size());
  if (round_counts) {
    shared.counts.resize(n);
  } else {
    shared.texts.resize(n);
  }

  const int threads = static_cast<int>(std::clamp<size_t>(
      static_cast<size_t>(requested_threads), 1,
      std::max<size_t>(1, shared.num_shards)));
  shared.seen.resize(static_cast<size_t>(threads));
  for (SeenValues& seen : shared.seen) {
    for (uint32_t radix : shared.radices) seen.codes.emplace_back(radix, 0);
    if (round_counts) seen.counts.assign(kDenseCounts / 64, 0);
  }
  table::RunOnWorkers(threads, [&shared](int worker) {
    SeenValues& seen = shared.seen[static_cast<size_t>(worker)];
    shared.Claim([&shared, &seen](size_t shard) {
      return shared.NoiseAndDecode(shard, seen);
    });
  });
  if (!shared.first_error.ok()) return shared.first_error;

  const auto build_start = Clock::now();
  shared.BuildDictionaries(labels);
  shared.format_ns.fetch_add(Nanos(Clock::now() - build_start),
                             std::memory_order_relaxed);
  shared.next_shard = 0;
  table::RunOnWorkers(threads, [&shared](int) {
    shared.Claim([&shared](size_t shard) {
      shared.CodeAndRender(shard);
      return Status::OK();
    });
  });
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
  std::vector<store::CodedTable> coded_tables;  // kept only to persist
  int64_t noise_ns = 0;
  int64_t format_ns = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Rng noise_root = Rng(rng.NextUint64())
                               .Substream(static_cast<uint64_t>(
                                   config.shard_size));
    store::CodedTable coded;
    EEP_ASSIGN_OR_RETURN(
        ReleasedTable table,
        ReleaseQueryCells(data, queries[i], *mechanism, config.round_counts,
                          static_cast<size_t>(config.shard_size),
                          requested_threads, noise_root, i, &coded,
                          &noise_ns, &format_ns));
    tables.push_back(std::move(table));
    if (config.persist_to != nullptr) {
      coded_tables.push_back(std::move(coded));
    }
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
                                                        coded_tables));
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
