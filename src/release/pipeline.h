// End-to-end release pipeline: what a statistical agency would actually
// run. Takes a dataset, a workload of marginal specs (a single marginal is
// the one-element workload) and a privacy target; charges the privacy
// accountant (refusing to release when the budget is exhausted); applies
// the chosen mechanism to every cell; emits labeled, optionally
// integer-rounded protected tables ready for CSV publication, rendered
// from the dictionary-coded tables it persists.
//
// The noise-sharding determinism contract (released tables bit-identical
// for every thread count, shard_size part of the noise derivation) is
// documented in docs/ARCHITECTURE.md, "Noise sharding".
#ifndef EEP_RELEASE_PIPELINE_H_
#define EEP_RELEASE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "eval/workloads.h"
#include "lodes/marginal.h"
#include "lodes/workload.h"
#include "privacy/accountant.h"
#include "store/store.h"
#include "table/group_by_cache.h"

namespace eep::release {

/// \brief A protected table ready for publication: attribute columns
/// followed by "count" in `header`, one labeled row per released cell, and
/// the name the table carries in a store epoch ("m<i>:<columns>"). The
/// rows are rendered from the coded table the release builds, which is
/// what a persisting release commits.
using ReleasedTable = store::TableData;

/// \brief Configuration of one fused workload release: every marginal of
/// the workload under the same mechanism and per-cell privacy parameters.
struct WorkloadReleaseConfig {
  lodes::WorkloadSpec workload;
  eval::MechanismKind mechanism = eval::MechanismKind::kSmoothLaplace;
  /// Per-cell privacy parameters. For marginals with worker attributes the
  /// accountant is charged d x epsilon under the weak model (Section 8).
  double alpha = 0.1;
  double epsilon = 1.0;
  double delta = 0.0;
  /// Round released values to non-negative integers (published tables are
  /// integral counts).
  bool round_counts = true;
  /// Ledger label; the accountant entry for each marginal appends its
  /// column list.
  std::string description = "workload release";
  /// Worker threads for the whole release: the group-by and the per-cell
  /// noise loop both shard across this many workers. Every noise shard
  /// draws from its own substream of the caller's rng and the group-by is
  /// sort-based, so the released tables are bit-identical for ANY thread
  /// count (including 1); <= 0 means std::thread::hardware_concurrency().
  int num_threads = 1;
  /// Cells per shard. Part of the noise-stream derivation: changing it
  /// changes the released noise (like changing the seed), while the thread
  /// count never does. The default keeps shards large enough that the
  /// batched mechanism sampling dominates scheduling overhead.
  int shard_size = 1024;
  /// When non-null, the released tables are persisted as one new epoch of
  /// this store AFTER the last marginal is noised: the coded tables the
  /// rows were rendered from are written, checksummed and fsynced, then
  /// committed atomically (store/store.h's commit protocol) under the
  /// workload's WorkloadFingerprint. A persist failure fails the release
  /// call — but the accountant charge stands (noise was drawn) and a
  /// reopened store still serves its previous epoch. Persisting never
  /// touches the noise derivation: the released tables are bit-identical
  /// with or without a store attached.
  store::Store* persist_to = nullptr;
};

/// \brief Phase breakdown of one RunReleaseWorkload call. `compute`
/// includes the proof obligation of the fused path: full_table_scans is at
/// most 1 (0 when a caller-held cache already covered the workload).
struct WorkloadReleaseStats {
  lodes::WorkloadComputeStats compute;
  /// CPU time summed across shard workers and marginals (with N threads
  /// the wall share is roughly 1/N): mechanism sampling, and coding plus
  /// rendering — each cell's codes and published value, the per-table
  /// dictionary ranking, recoding by rank and rendering the rows.
  double noise_ms = 0.0;
  double format_ms = 0.0;
  /// Wall time of the optional persist step (0 when no store is attached):
  /// CommitEpoch's checks, segment writes and fsyncs. The tables arrive
  /// coded, so no encoding is in it.
  double persist_ms = 0.0;
  /// Epoch id the persist step committed (0 when no store is attached).
  uint64_t persisted_epoch = 0;
  /// The WorkloadFingerprint the epoch was committed under (empty when no
  /// store is attached). A serving reader (serve::Server) checks this
  /// against the manifest before answering from the epoch.
  std::string persisted_fingerprint;
};

/// Releases every marginal of a workload from ONE shared scan: the fused
/// group-by + cube roll-ups of lodes::ComputeWorkload replace the
/// per-marginal table scans, then each marginal is noised, coded and
/// rendered.
/// Table i is named "m<i>:<columns>" (unique within the epoch even when
/// two marginals share a column list). Determinism contract: marginal i
/// draws one rng value in workload order, so the caller's stream advances
/// — and every released table is bit-identical to — releasing each
/// marginal as its own one-marginal workload with the same config; thread
/// count never changes the output. The accountant is charged for the
/// WHOLE workload atomically before any noise is drawn (one ledger entry
/// per marginal: epsilon for establishment-only marginals, d x epsilon for
/// marginals with worker attributes under the weak model): a refusal
/// returns ResourceExhausted with nothing charged and nothing released.
/// `cache`, when non-null, carries groupings across calls so an
/// overlapping workload skips the scan entirely.
Result<std::vector<ReleasedTable>> RunReleaseWorkload(
    const lodes::LodesDataset& data, const WorkloadReleaseConfig& config,
    privacy::PrivacyAccountant* accountant, Rng& rng,
    table::GroupByCache* cache = nullptr,
    WorkloadReleaseStats* stats = nullptr);

}  // namespace eep::release

#endif  // EEP_RELEASE_PIPELINE_H_
