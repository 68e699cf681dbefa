// The immutable unit the serving layer swaps: one committed epoch's
// tables decoded into memory and indexed for point lookups and ranking.
//
// A Snapshot is built once (Snapshot::Load reads the epoch's coded
// columns back through the store's checksummed read path,
// Store::ReadCoded) and never mutated afterwards, so any number of reader
// threads can query one concurrently with no synchronization at all — the
// concurrency story lives entirely in serve::Server, which swaps
// `shared_ptr<const Snapshot>`s behind the readers (docs/ARCHITECTURE.md,
// "Serving contract").
//
// Per table, the stored columns are re-laid out as a typed, columnar
// index. The store's dictionaries already are the label dictionaries and
// its codes already are their ranks, so a load builds, hashes and parses
// no string per row:
//
//   labels    per attribute column, its distinct labels sorted in byte
//             order; a label's code is its rank, so comparing codes
//             compares the strings;
//   slots     per attribute column, an open-addressing hash table from
//             label to code, so a label resolves in O(1) expected;
//   keys      each row's codes packed into one uint64 (first column in the
//             most significant bits), rows stored in ascending key order;
//   buckets   2^b + 1 row offsets over the keys' top b bits, b = min(key
//             bits, ceil(log2 rows)): a packed key is searched only among
//             the keys sharing its top bits, O(1) expected on spread keys
//             and never worse than one binary search over all of them;
//   values    the value column's dictionary (the released counts'
//             verbatim texts) and one code into it per row, in key order;
//   by_rank   positions by released count descending, ties by attribute
//             tuple ascending — top-k ranking queries are an O(k) walk.
//             Each distinct count text is parsed once; texts with equal
//             numbers ("2", "2.0000") share one bucket, so the rank index
//             is a counting placement, O(n + d log d) for d distinct texts.
//
// Rows with equal attribute tuples keep their stored order, so a lookup of
// a duplicated tuple answers with the first stored row. Every answer is
// rebuilt from the verbatim stored strings: a served answer is
// bit-identical to Store::ReadTable of the same epoch, which the serving
// stress/property tests assert under live commits.
#ifndef EEP_SERVE_SNAPSHOT_H_
#define EEP_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/store.h"

namespace eep::serve {

/// \brief One ranked answer row: the attribute values (header order,
/// without the value column) plus the released count, verbatim.
struct RankedCell {
  std::vector<std::string> attrs;
  std::string count;

  bool operator==(const RankedCell& other) const {
    return attrs == other.attrs && count == other.count;
  }
};

/// \brief One table of a snapshot as a typed index: per-column label
/// dictionaries, key-sorted packed row keys, coded verbatim counts and the
/// rank order. Immutable after Build; all methods are const and
/// thread-safe.
class ServedTable {
 public:
  /// Codes `data` (attribute columns followed by one value column, the
  /// shape the release pipeline persists) with store::EncodeTable and
  /// builds the index exactly as Snapshot::Load does from the store.
  /// InvalidArgument on a ragged row, a value cell that is not wholly a
  /// finite number, or label dictionaries whose code widths sum past 64
  /// bits.
  static Result<ServedTable> Build(store::TableData data);

  const std::string& name() const { return name_; }
  /// Attribute columns followed by the value column ("count").
  const std::vector<std::string>& header() const { return header_; }
  size_t num_rows() const { return keys_.size(); }
  /// The stored rows rebuilt from the index, in served order: attribute
  /// tuple ascending, equal tuples in stored order (a stable sort of the
  /// stored rows by attribute tuple).
  std::vector<std::vector<std::string>> Rows() const;

  /// Point lookup by attribute tuple (one value per attribute column, in
  /// header order): one hash probe per label, then a search of the packed
  /// key's bucket.
  /// Returns the released count verbatim (the first stored row's, when
  /// the tuple repeats); NotFound when the combination is not in the
  /// released domain.
  Result<std::string> Lookup(const std::vector<std::string>& key) const;

  /// Map-form lookup mirroring lodes::MarginalQuery::FindCell: requires
  /// exactly one value per attribute column, by column name. Walks the map
  /// (ordered by name) beside the attribute columns in name order, with
  /// no per-request copy and no search by name.
  Result<std::string> LookupCell(
      const std::map<std::string, std::string>& values) const;

  /// The k highest released counts (numeric descending, ties by
  /// attribute tuple ascending), O(k) off the precomputed rank index.
  /// Fewer than k rows returns them all.
  std::vector<RankedCell> TopK(size_t k) const;

 private:
  /// One attribute column's dictionary and its field in the packed key.
  struct Column {
    std::vector<std::string> labels;  // distinct labels, byte order
    // Open addressing, linear probing, at most half full: code + 1 per
    // occupied slot, 0 for an empty one; a power-of-two size.
    std::vector<uint32_t> slots;
    uint32_t shift = 0;  // field offset within the key
    uint32_t bits = 0;   // field width; 0 for a single label

    /// The code of `label`, or kNoCode when it is not in the dictionary.
    uint32_t CodeOf(const std::string& label) const;
  };

  static constexpr uint32_t kNoCode = UINT32_MAX;

  friend class Snapshot;

  ServedTable() = default;

  /// The one index build, over validated coded columns (EncodeTable or
  /// Store::ReadCoded output): dictionaries byte-ordered, codes in range.
  static Result<ServedTable> FromCoded(store::CodedTable coded);

  /// The attribute values packed into `key`, in header order.
  std::vector<std::string> Unpack(uint64_t key) const;

  /// The one resolve path behind Lookup and LookupCell: the position of
  /// the first stored row whose tuple has, for each attribute column c,
  /// the label `label_of(c)`, or num_rows() when a label is not in its
  /// column's dictionary or no row holds the tuple. Columns are visited in
  /// header order, or in `order` when it is not null; a null label stops
  /// the walk as a miss.
  template <typename LabelOf>
  size_t FindRow(const uint32_t* order, LabelOf label_of) const;

  std::string name_;
  std::vector<std::string> header_;
  std::vector<Column> columns_;         // one per attribute column
  std::vector<uint32_t> by_name_;       // attribute columns, name order
  std::vector<uint64_t> keys_;          // ascending; row position = index
  std::vector<uint32_t> buckets_;       // 2^b + 1 offsets into keys_
  uint32_t bucket_shift_ = 0;           // key >> shift = its bucket
  std::vector<std::string> values_;     // value dictionary, verbatim texts
  std::vector<uint32_t> value_codes_;   // into values_, by row position
  std::vector<uint32_t> by_rank_;       // row positions, rank order
};

/// \brief One committed epoch, decoded and indexed. Immutable; shared
/// across reader threads as `shared_ptr<const Snapshot>`.
class Snapshot {
 public:
  /// The pre-first-epoch state: epoch 0, no tables. Servers open on an
  /// empty store serve this until the first commit lands.
  Snapshot() = default;

  /// Reads every table of `epoch` back through the store's verifying
  /// coded read path (Store::ReadCoded) and indexes it. IOError surfaces
  /// (never wrong data); the caller keeps serving its previous snapshot on
  /// failure.
  static Result<Snapshot> Load(const store::Store& store, uint64_t epoch);

  /// 0 for the empty pre-first-epoch snapshot.
  uint64_t epoch() const { return epoch_; }
  const std::string& fingerprint() const { return fingerprint_; }
  /// Tables in committed order.
  const std::vector<ServedTable>& tables() const { return tables_; }
  /// NotFound when the epoch has no table `name` (or no epoch is loaded).
  Result<const ServedTable*> Find(const std::string& name) const;

 private:
  uint64_t epoch_ = 0;
  std::string fingerprint_;
  std::vector<ServedTable> tables_;
};

}  // namespace eep::serve

#endif  // EEP_SERVE_SNAPSHOT_H_
