// Crash-safe embedded store for released tables: the persistence layer
// under the serving front end (ROADMAP, "Persistent release store").
//
// On-disk layout (one directory per store):
//
//   ep<epoch>-t<k>.seg   one append-only, dictionary-coded columnar segment
//                        per table (format tag EEPSEG2): framed blocks
//                        [u32 len][u32 masked-crc32c][payload] — a header
//                        block (table name; per column its name and
//                        dictionary size; row count), then column by column
//                        that column's dictionary chunks (its distinct
//                        values in byte order, length-prefixed) followed by
//                        its code chunks (one little-endian code per row,
//                        1, 2 or 4 bytes wide by dictionary size). Each
//                        chunk names its column, kind, first index and
//                        entry count.
//   MANIFEST             the write-ahead log of commits: one framed record
//                        per epoch (epoch id, workload/spec fingerprint,
//                        segment list with per-segment size + whole-file
//                        CRC32C), plus a leading format record.
//   MANIFEST.tmp         staging for the atomic manifest swap; never read,
//                        removed at Open.
//
// Commit protocol for one epoch (CommitEpoch):
//   1. write every segment file, block by block, and fsync each;
//   2. append the epoch's record to the manifest image IN MEMORY, write
//      the whole image to MANIFEST.tmp, fsync it;
//   3. rename(MANIFEST.tmp -> MANIFEST) — the atomic commit point — and
//      fsync the directory.
// A crash anywhere before the rename leaves the previous MANIFEST intact;
// the new segments are unreferenced orphans. A crash after the rename has
// committed the epoch even if CommitEpoch never returned.
//
// Recovery invariant (Store::Open): the store always opens to the state
// of the last committed epoch — orphan segments and MANIFEST.tmp (the
// torn tail of an interrupted commit) are removed, every committed
// segment must exist with its manifest size, and any checksum mismatch on
// read surfaces as Status::IOError, never as silently wrong data. The
// crash-matrix test (tests/store_crash_matrix_test.cc) proves this for
// every registered failpoint site x hit count; the corruption sweep
// proves the IOError half bit by bit. Beyond checksums, the one segment
// decoder (Store::ReadCoded) refuses any well-framed segment whose
// content breaks the format: a dictionary that is not strictly ascending,
// a code past its dictionary, a dictionary size of 0 with rows present or
// above the row count, a chunk out of order or range, a code chunk whose
// length is not entries x width, or an incomplete column.
#ifndef EEP_STORE_STORE_H_
#define EEP_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/status.h"
#include "lodes/workload.h"

namespace eep::store {

/// \brief One named string table, the unit the store persists: a name
/// that is unique within its epoch, a header and rows. The release
/// pipeline emits this type directly (release::ReleasedTable is an alias),
/// so a release is committed as-is.
struct TableData {
  std::string name;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  bool operator==(const TableData& other) const {
    return name == other.name && header == other.header &&
           rows == other.rows;
  }
};

/// \brief One dictionary-coded column: its distinct values sorted in
/// std::string (unsigned byte) order, and per row the index of the row's
/// value in that dictionary. A code is therefore its value's byte-order
/// rank: comparing codes compares the strings.
struct CodedColumn {
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;  ///< One per row, each < dict.size().
};

/// \brief A TableData column by column, the form the store commits and
/// Store::ReadCoded returns: every column is coded, the value column too.
struct CodedTable {
  std::string name;
  std::vector<std::string> header;
  uint64_t num_rows = 0;
  std::vector<CodedColumn> columns;  ///< One per header entry.
};

/// \brief Codes every column of `table`, including the value column and any
/// binary, empty or 0-row one. InvalidArgument on a row whose arity
/// differs from the header, or more rows than 32-bit codes can index.
Result<CodedTable> EncodeTable(const TableData& table);

/// \brief Manifest metadata of one persisted table.
struct TableMeta {
  std::string name;
  std::string segment_file;  ///< Relative to the store directory.
  uint64_t size_bytes = 0;   ///< Manifest-recorded segment size.
  uint32_t crc32c = 0;       ///< CRC32C of the whole segment file.
  uint64_t num_rows = 0;
};

/// \brief One committed epoch: a full set of tables that supersedes every
/// earlier epoch for serving (earlier epochs stay readable as history).
struct EpochInfo {
  uint64_t epoch = 0;
  /// Workload/spec fingerprint recorded at commit (WorkloadFingerprint
  /// below for pipeline persists) — lets a reader check it is looking at
  /// the release it expects before serving.
  std::string fingerprint;
  std::vector<TableMeta> tables;
};

/// \brief Deterministic fingerprint of what a persisted release answers:
/// the workload's marginal columns plus the mechanism and privacy
/// parameters. Pure function of its arguments (stable across runs,
/// platforms and thread counts).
std::string WorkloadFingerprint(const lodes::WorkloadSpec& workload,
                                const std::string& mechanism_name,
                                double alpha, double epsilon, double delta);

/// \brief The embedded store.
///
/// Thread compatibility: const methods (ReadCoded/ReadTable/ReadEpoch/
/// GetEpoch/Epochs/...) never mutate instance state and are safe to call
/// from any number of threads concurrently on one instance (every read is
/// positional; store_test pins this under ctest's TSan configuration).
/// CommitEpoch and Refresh mutate the epoch index and need external
/// synchronization against each other AND against the const methods.
/// Distinct instances over the same committed directory never share
/// state, so a read-only serving instance (OpenReadOnly + Refresh) can
/// follow a writer instance — or a writer in another process — with no
/// coordination beyond the commit protocol itself.
class Store {
 public:
  /// Opens (creating the directory if needed) and RECOVERS: removes the
  /// torn tail of any interrupted commit, strictly validates the
  /// manifest (a manifest that survived the atomic swap can only fail
  /// validation through corruption -> IOError), and checks every
  /// committed segment is present with its recorded size.
  static Result<std::unique_ptr<Store>> Open(const std::string& dir);

  /// Opens WITHOUT mutating the directory: no torn-tail removal, no
  /// orphan sweep, no directory creation — safe while another instance
  /// (or process) is mid-commit, because the rename swap guarantees any
  /// MANIFEST this reads is complete. A missing directory or manifest is
  /// an empty store, not an error: the serving layer opens before the
  /// first release has committed and picks epochs up via Refresh. The
  /// returned store refuses CommitEpoch with FailedPrecondition.
  static Result<std::unique_ptr<Store>> OpenReadOnly(const std::string& dir);

  /// Re-reads the manifest and folds in epochs committed since this
  /// instance last looked (by another instance or process — the epoch-
  /// change polling hook of the serving layer). Cheap when nothing
  /// changed: the manifest image is append-only between renames, so a
  /// size probe short-circuits the re-parse. New epochs are validated
  /// like Open validates them (segment presence + recorded size).
  /// Returns the last committed epoch. Mutates the epoch index: needs
  /// the same external synchronization as CommitEpoch.
  Result<uint64_t> Refresh();

  /// Persists `tables` as the next epoch via the commit protocol above.
  /// Returns the committed epoch id. On error nothing is committed — a
  /// reopened store serves the previous epoch (the failed epoch's
  /// segments are cleaned up by recovery, or best-effort immediately) —
  /// with one crash-semantics exception: a failure AFTER the rename
  /// (directory sync) reports an error although the epoch is durably
  /// committed, exactly like a crash there would. After any failed
  /// commit this instance is stale; reopen the directory to continue.
  Result<uint64_t> CommitEpoch(const std::string& fingerprint,
                               const std::vector<TableData>& tables);

  /// 0 when no epoch has been committed yet.
  uint64_t last_committed_epoch() const { return last_epoch_; }
  /// Committed epochs in increasing order.
  std::vector<uint64_t> Epochs() const;
  Result<const EpochInfo*> GetEpoch(uint64_t epoch) const;
  /// Convenience: GetEpoch(last_committed_epoch()).
  Result<const EpochInfo*> CurrentEpoch() const;

  /// Reads one table back in its committed coded form, verifying the
  /// manifest-recorded size and whole-file CRC, every block checksum and
  /// the segment format (see the file comment); bit-identical to
  /// EncodeTable of what was committed or Status::IOError — never
  /// silently wrong data.
  Result<CodedTable> ReadCoded(uint64_t epoch, const std::string& name) const;
  /// ReadCoded with the rows rendered back to strings.
  Result<TableData> ReadTable(uint64_t epoch, const std::string& name) const;
  /// Every table of `epoch`, in committed order.
  Result<std::vector<TableData>> ReadEpoch(uint64_t epoch) const;

  const std::string& dir() const { return dir_; }

 private:
  explicit Store(std::string dir) : dir_(std::move(dir)) {}

  Status Recover();
  /// Parses a complete manifest image into *epochs / *last_epoch (which
  /// must come in empty). Pure validation — no filesystem access.
  static Status ParseManifestImage(const std::string& image,
                                   std::map<uint64_t, EpochInfo>* epochs,
                                   uint64_t* last_epoch);
  /// Checks every table of `info` has its segment on disk at the
  /// manifest-recorded size.
  Status ValidateEpochSegments(const EpochInfo& info) const;
  Status WriteSegment(const std::string& file, const CodedTable& table,
                      TableMeta* meta) const;
  /// Sets *renamed once the atomic swap has happened, so the caller can
  /// tell a pre-commit failure (clean up the orphans) from a post-commit
  /// one (the epoch is on disk; leave it alone).
  Status CommitManifest(const std::string& appended_record, bool* renamed);

  std::string dir_;
  bool read_only_ = false;
  /// The manifest image as last committed (header record + one record per
  /// epoch); CommitEpoch extends it in memory and swaps it in atomically.
  /// Refresh's fast path leans on the append-only growth: a same-sized
  /// on-disk manifest is the one already loaded.
  std::string manifest_image_;
  std::map<uint64_t, EpochInfo> epochs_;
  uint64_t last_epoch_ = 0;
};

}  // namespace eep::store

#endif  // EEP_STORE_STORE_H_
