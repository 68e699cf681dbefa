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
//   MANIFEST             the write-ahead log of commits, append-only: a
//                        header frame (format tag EEPMAN2), then one record
//                        frame per epoch (epoch id, workload/spec
//                        fingerprint, segment list with per-segment size +
//                        whole-file CRC32C). A manifest frame also checks
//                        its own header — [u32 len][u32 masked crc32c
//                        (payload)][u32 masked crc32c(the 8 bytes before)]
//                        [payload] — so a length is trusted before the
//                        payload is read.
//
// Commit protocol for one epoch (CommitEpoch):
//   1. write every segment file, block by block, and fsync each;
//   2. fsync the directory, so the segment names are durable before any
//      record names them;
//   3. append the epoch's record to MANIFEST (the first commit creates the
//      file with its header frame, then fsyncs the directory again);
//   4. fsync MANIFEST — the commit point; CommitEpoch returns OK only
//      after it.
// A crash before step 3 leaves MANIFEST as it was; the new segments are
// unreferenced orphans. A crash during the append leaves an incomplete
// final record (a torn tail). A crash after the append may have committed
// the epoch even if CommitEpoch never returned.
//
// Recovery invariant (Store::Open): the store always opens to the state
// of the last committed epoch. A torn tail — MANIFEST ends inside its
// final frame's header, or after a header that passes its check but
// before the payload ends — is truncated away (and the cut fsync'd);
// orphan segments and stray *.tmp files are removed; every committed
// segment must exist with its manifest size. Anything else wrong with
// MANIFEST — a frame header failing its check, a complete frame failing
// its CRC, epochs not strictly increasing — and any checksum mismatch on
// read surfaces as Status::IOError, never as silently wrong data. The
// crash-matrix test (tests/store_crash_matrix_test.cc) proves this for
// every registered failpoint site x hit count; the corruption sweep
// proves the IOError half bit by bit. Beyond checksums, the one segment
// decoder (Store::ReadCoded) refuses any well-framed segment whose
// content breaks the format: a dictionary that is not strictly ascending,
// a code past its dictionary, a dictionary size of 0 with rows present or
// above the row count, a chunk out of order or range, a code chunk whose
// length is not entries x width, or an incomplete column. CommitEpoch
// refuses the content half of that list before it writes a byte, so a
// commit that succeeds always reads back.
#ifndef EEP_STORE_STORE_H_
#define EEP_STORE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/status.h"
#include "lodes/workload.h"

namespace eep::store {

/// \brief One named string table: a name that is unique within its epoch,
/// a header and rows. The release pipeline returns its tables in this form
/// (release::ReleasedTable is an alias), rendered from the coded tables it
/// commits.
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

  bool operator==(const CodedColumn& other) const {
    return dict == other.dict && codes == other.codes;
  }
};

/// \brief A TableData column by column, the form the store commits and
/// Store::ReadCoded returns: every column is coded, the value column too.
/// The release pipeline builds its tables in this form straight from the
/// key-sorted cells.
struct CodedTable {
  std::string name;
  std::vector<std::string> header;
  uint64_t num_rows = 0;
  std::vector<CodedColumn> columns;  ///< One per header entry.

  bool operator==(const CodedTable& other) const {
    return name == other.name && header == other.header &&
           num_rows == other.num_rows && columns == other.columns;
  }
};

/// \brief Codes every column of `table`, including the value column and any
/// binary, empty or 0-row one. InvalidArgument on a row whose arity
/// differs from the header, or more rows than 32-bit codes can index.
Result<CodedTable> EncodeTable(const TableData& table);

/// \brief Renders rows [begin, end) of `coded` back to strings into the
/// same slots of *rows, which must hold at least `end` rows. Touches no
/// other slot, so disjoint ranges can be rendered concurrently. `coded`
/// must be well formed (every code below its dictionary's size).
void RenderRows(const CodedTable& coded, size_t begin, size_t end,
                std::vector<std::vector<std::string>>* rows);

/// \brief `coded` with every row rendered back to strings: the inverse of
/// EncodeTable.
TableData RenderTable(const CodedTable& coded);

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
  /// Opens (creating the directory if needed) and RECOVERS: truncates a
  /// torn final manifest record, strictly validates every complete one
  /// (anything else malformed is corruption -> IOError), checks every
  /// committed segment is present with its recorded size, and removes
  /// orphan segments.
  static Result<std::unique_ptr<Store>> Open(const std::string& dir);

  /// Opens WITHOUT mutating the directory: no truncation, no orphan
  /// sweep, no directory creation — safe while another instance (or
  /// process) is mid-commit, because an incomplete final record is
  /// ignored until it completes. A missing directory or manifest is an
  /// empty store, not an error: the serving layer opens before the first
  /// release has committed and picks epochs up via Refresh. The returned
  /// store refuses CommitEpoch with FailedPrecondition.
  static Result<std::unique_ptr<Store>> OpenReadOnly(const std::string& dir);

  /// Folds in epochs committed since this instance last looked (by
  /// another instance or process — the epoch-change polling hook of the
  /// serving layer). MANIFEST only grows, so an unchanged size returns at
  /// once; otherwise only the bytes past the prefix already validated are
  /// read and parsed, and an incomplete final record is left for a later
  /// call. New epochs are validated like Open validates them (segment
  /// presence + recorded size) before any is published. Returns the last
  /// committed epoch. Mutates the epoch index: needs the same external
  /// synchronization as CommitEpoch.
  Result<uint64_t> Refresh();

  /// Persists `tables` as the next epoch via the commit protocol above.
  /// Returns the committed epoch id. On error nothing is committed — a
  /// reopened store serves the previous epoch (the failed epoch's
  /// segments are cleaned up by recovery, or best-effort immediately) —
  /// with one crash-semantics exception: once any byte of the epoch's
  /// record may have reached MANIFEST, an error can come back although
  /// the epoch is durably committed, exactly like a crash there would.
  /// Argument errors (InvalidArgument) touch no file and leave the
  /// instance usable: an empty set, a duplicate table name, or a table
  /// ReadCoded would refuse to decode (a column count that differs from
  /// the header, a code vector not num_rows long, a content check of the
  /// file comment, or more rows than 32-bit codes index). Any other
  /// failure makes this instance stale: every later CommitEpoch returns
  /// FailedPrecondition until the directory is reopened.
  Result<uint64_t> CommitEpoch(const std::string& fingerprint,
                               const std::vector<CodedTable>& tables);
  /// EncodeTable of every table, then the coded CommitEpoch above.
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

 private:
  explicit Store(std::string dir) : dir_(std::move(dir)) {}

  Status Recover();
  /// Refresh's work: reads MANIFEST past the validated prefix, validates
  /// the segments of every new complete record, then publishes them and
  /// extends the prefix. Sets *file_size to the size it read, so a torn
  /// tail shows as *file_size > manifest_bytes_.
  Status LoadManifest(uint64_t* file_size);
  /// Checks every table of `info` has its segment on disk at the
  /// manifest-recorded size.
  Status ValidateEpochSegments(const EpochInfo& info) const;
  Status WriteSegment(const std::string& file, const CodedTable& table,
                      TableMeta* meta) const;
  /// Steps 3-4 of the commit protocol. Sets *appending once a record byte
  /// may have reached MANIFEST, so the caller can tell a failure that
  /// leaves orphans (clean them up) from one that may have committed the
  /// epoch (leave its segments alone).
  Status AppendManifestRecord(const std::string& record, bool* appending);

  std::string dir_;
  bool read_only_ = false;
  /// Set when a CommitEpoch fails past argument validation.
  bool stale_ = false;
  /// Bytes of MANIFEST up to its last complete record that this instance
  /// has validated (or written). Refresh reads only past them.
  uint64_t manifest_bytes_ = 0;
  std::map<uint64_t, EpochInfo> epochs_;
  uint64_t last_epoch_ = 0;
};

}  // namespace eep::store

#endif  // EEP_STORE_STORE_H_
