#include "store/store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace eep::store {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "EEPMAN2";
constexpr char kSegmentMagic[] = "EEPSEG2";
constexpr char kEpochTag[] = "EPOCH";
/// Column chunks target this payload size so block checksums localize
/// corruption and no single frame grows unboundedly.
constexpr size_t kColumnChunkBytes = 256 * 1024;
/// Chunk kinds: each column's dictionary chunks precede its code chunks.
constexpr uint32_t kDictChunk = 0;
constexpr uint32_t kCodeChunk = 1;

/// Bytes per code for a dictionary of `dict_size` values. Worked out from
/// the dictionary size, so writer and reader agree without storing it.
uint32_t CodeWidth(uint64_t dict_size) {
  if (dict_size <= (uint64_t{1} << 8)) return 1;
  if (dict_size <= (uint64_t{1} << 16)) return 2;
  return 4;
}

// ---------------------------------------------------------------------------
// Little-endian primitive + length-prefixed coding.
// ---------------------------------------------------------------------------

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFFu);
  buf[1] = static_cast<char>((v >> 8) & 0xFFu);
  buf[2] = static_cast<char>((v >> 16) & 0xFFu);
  buf[3] = static_cast<char>((v >> 24) & 0xFFu);
  out->append(buf, 4);
}

void PutFixed64(std::string* out, uint64_t v) {
  PutFixed32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t DecodeFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

/// The low `width` bytes of `code`, little-endian.
void PutCode(char* out, uint32_t code, uint32_t width) {
  for (uint32_t b = 0; b < width; ++b) {
    out[b] = static_cast<char>((code >> (8 * b)) & 0xFFu);
  }
}

uint32_t DecodeCode(const char* p, uint32_t width) {
  uint32_t code = 0;
  for (uint32_t b = 0; b < width; ++b) {
    code |= static_cast<uint32_t>(static_cast<unsigned char>(p[b])) << (8 * b);
  }
  return code;
}

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// \brief Bounds-checked cursor over one frame's payload, read in place.
class PayloadReader {
 public:
  PayloadReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  Status GetFixed32(uint32_t* v) {
    EEP_RETURN_NOT_OK(Need(4));
    *v = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }
  Status GetFixed64(uint64_t* v) {
    EEP_RETURN_NOT_OK(Need(8));
    *v = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }
  /// The next `n` bytes, as a view into the payload.
  Status GetBytes(size_t n, std::string_view* s) {
    EEP_RETURN_NOT_OK(Need(n));
    *s = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status GetLengthPrefixed(std::string_view* s) {
    uint32_t n = 0;
    EEP_RETURN_NOT_OK(GetFixed32(&n));
    return GetBytes(n, s);
  }
  Status GetLengthPrefixed(std::string* s) {
    std::string_view view;
    EEP_RETURN_NOT_OK(GetLengthPrefixed(&view));
    s->assign(view);
    return Status::OK();
  }
  Status ExpectTag(const char* tag) {
    std::string_view got;
    EEP_RETURN_NOT_OK(GetLengthPrefixed(&got));
    if (got != tag) {
      return Status::IOError(context_ + ": expected tag '" +
                             std::string(tag) + "', found '" +
                             std::string(got) + "'");
    }
    return Status::OK();
  }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) {
    if (n > data_.size() - pos_) {
      return Status::IOError(context_ + ": payload truncated at offset " +
                             std::to_string(pos_));
    }
    return Status::OK();
  }

  std::string_view data_;
  std::string context_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Segment frames: [u32 payload_len][u32 masked crc32c(payload)][payload].
// ---------------------------------------------------------------------------

constexpr size_t kFrameHeaderBytes = 8;

std::string Frame(const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, Crc32cMask(Crc32c(payload)));
  out.append(payload);
  return out;
}

/// Checks the frame at *pos in place, pointing *payload into `data` and
/// advancing *pos. A frame extending past the end of `data` or failing its
/// checksum is an IOError: a committed segment was fsync'd whole before
/// any manifest record named it, so either means corruption.
Status ReadFrame(std::string_view data, size_t* pos, std::string_view* payload,
                 const std::string& context) {
  if (data.size() - *pos < kFrameHeaderBytes) {
    return Status::IOError(context + ": truncated frame header at offset " +
                           std::to_string(*pos));
  }
  const uint32_t len = DecodeFixed32(data.data() + *pos);
  const uint32_t want_crc = Crc32cUnmask(DecodeFixed32(data.data() + *pos + 4));
  if (data.size() - *pos - kFrameHeaderBytes < len) {
    return Status::IOError(context + ": frame at offset " +
                           std::to_string(*pos) + " claims " +
                           std::to_string(len) +
                           " payload bytes past end of data");
  }
  *payload = data.substr(*pos + kFrameHeaderBytes, len);
  if (Crc32c(payload->data(), payload->size()) != want_crc) {
    return Status::IOError(context + ": checksum mismatch in frame at offset " +
                           std::to_string(*pos));
  }
  *pos += kFrameHeaderBytes + len;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Manifest frames: [u32 payload_len][u32 masked crc32c(payload)]
// [u32 masked crc32c(the 8 bytes before)][payload]. The header checks
// itself, so a length is trusted before its payload is read: a file that
// ends inside a frame whose header passes is a torn tail, and a header
// that fails is corruption.
// ---------------------------------------------------------------------------

constexpr size_t kManifestFrameHeaderBytes = 12;

std::string ManifestFrame(const std::string& payload) {
  std::string out;
  out.reserve(kManifestFrameHeaderBytes + payload.size());
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, Crc32cMask(Crc32c(payload)));
  PutFixed32(&out, Crc32cMask(Crc32c(out.data(), out.size())));
  out.append(payload);
  return out;
}

/// Parses MANIFEST bytes `data`, which start at file offset `offset` (0:
/// `data` opens with the header frame), after an epoch history ending at
/// `last_epoch`. Appends each epoch record to *epochs and sets *complete
/// to the bytes up to the end of the last one: the first commit appends
/// the header together with its record, so a header alone is part of a
/// torn tail. Stops at a torn tail; anything else malformed is IOError.
Status ParseManifest(std::string_view data, uint64_t offset,
                     uint64_t last_epoch, std::vector<EpochInfo>* epochs,
                     size_t* complete) {
  *complete = 0;
  size_t pos = 0;
  while (data.size() - pos >= kManifestFrameHeaderBytes) {
    const char* header = data.data() + pos;
    if (Crc32cUnmask(DecodeFixed32(header + 8)) != Crc32c(header, 8)) {
      return Status::IOError("MANIFEST frame header at offset " +
                             std::to_string(offset + pos) +
                             " fails its checksum");
    }
    const uint32_t len = DecodeFixed32(header);
    if (data.size() - pos - kManifestFrameHeaderBytes < len) break;
    const std::string_view payload =
        data.substr(pos + kManifestFrameHeaderBytes, len);
    if (Crc32c(payload.data(), payload.size()) !=
        Crc32cUnmask(DecodeFixed32(header + 4))) {
      return Status::IOError("MANIFEST frame at offset " +
                             std::to_string(offset + pos) +
                             " fails its checksum");
    }
    const bool is_header = offset + pos == 0;
    pos += kManifestFrameHeaderBytes + len;
    if (is_header) {
      PayloadReader reader(payload, "MANIFEST header");
      EEP_RETURN_NOT_OK(reader.ExpectTag(kManifestMagic));
      continue;
    }
    PayloadReader reader(payload, "MANIFEST record");
    EEP_RETURN_NOT_OK(reader.ExpectTag(kEpochTag));
    EpochInfo info;
    EEP_RETURN_NOT_OK(reader.GetFixed64(&info.epoch));
    EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&info.fingerprint));
    uint32_t num_tables = 0;
    EEP_RETURN_NOT_OK(reader.GetFixed32(&num_tables));
    for (uint32_t t = 0; t < num_tables; ++t) {
      TableMeta meta;
      EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&meta.name));
      EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&meta.segment_file));
      EEP_RETURN_NOT_OK(reader.GetFixed64(&meta.size_bytes));
      EEP_RETURN_NOT_OK(reader.GetFixed32(&meta.crc32c));
      EEP_RETURN_NOT_OK(reader.GetFixed64(&meta.num_rows));
      info.tables.push_back(std::move(meta));
    }
    if (!reader.AtEnd()) {
      return Status::IOError("MANIFEST record for epoch " +
                             std::to_string(info.epoch) +
                             " carries trailing bytes");
    }
    if (info.epoch <= last_epoch) {
      return Status::IOError("MANIFEST epochs not strictly increasing at " +
                             std::to_string(info.epoch));
    }
    last_epoch = info.epoch;
    epochs->push_back(std::move(info));
    *complete = pos;
  }
  return Status::OK();
}

/// A column chunk's leading fields: which column, which kind, the index of
/// its first entry and how many entries it carries.
std::string ChunkHeader(size_t column, uint32_t kind, uint64_t first,
                        size_t entries) {
  std::string chunk;
  PutFixed32(&chunk, static_cast<uint32_t>(column));
  PutFixed32(&chunk, kind);
  PutFixed64(&chunk, first);
  PutFixed32(&chunk, static_cast<uint32_t>(entries));
  return chunk;
}

/// Why `table` breaks the segment format, or "" when it does not: the
/// content checks that both CommitEpoch (before it writes) and ReadCoded
/// (after it decodes) apply, so a commit that succeeds always reads back.
std::string FormatProblem(const CodedTable& table) {
  if (table.num_rows > UINT32_MAX) return "more rows than 32-bit codes index";
  if (table.columns.size() != table.header.size()) {
    return std::to_string(table.columns.size()) + " columns for " +
           std::to_string(table.header.size()) + " header entries";
  }
  for (size_t c = 0; c < table.columns.size(); ++c) {
    const CodedColumn& column = table.columns[c];
    const std::string where = "column " + std::to_string(c);
    const size_t dict_size = column.dict.size();
    if (column.codes.size() != table.num_rows) {
      return where + " has " + std::to_string(column.codes.size()) +
             " codes for " + std::to_string(table.num_rows) + " rows";
    }
    // Every dictionary value is some row's, so a column with rows has a
    // dictionary of 1 to num_rows values and a column without rows none.
    if ((dict_size == 0) != (table.num_rows == 0) ||
        dict_size > table.num_rows) {
      return where + " has a dictionary of " + std::to_string(dict_size) +
             " values for " + std::to_string(table.num_rows) + " rows";
    }
    for (size_t i = 1; i < dict_size; ++i) {
      if (!(column.dict[i - 1] < column.dict[i])) {
        return "dictionary of " + where +
               " is not strictly ascending at value " + std::to_string(i);
      }
    }
    for (uint32_t code : column.codes) {
      if (code >= dict_size) {
        return "code " + std::to_string(code) + " of " + where +
               " is past its " + std::to_string(dict_size) +
               "-value dictionary";
      }
    }
  }
  return "";
}

std::string FormatDoubleKey(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SegmentFileName(uint64_t epoch, size_t table_index) {
  return "ep" + std::to_string(epoch) + "-t" +
         std::to_string(table_index) + ".seg";
}

}  // namespace

std::string WorkloadFingerprint(const lodes::WorkloadSpec& workload,
                                const std::string& mechanism_name,
                                double alpha, double epsilon, double delta) {
  std::string fp = "workload[";
  for (size_t i = 0; i < workload.marginals.size(); ++i) {
    if (i > 0) fp += ";";
    const auto columns = workload.marginals[i].AllColumns();
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) fp += ",";
      fp += columns[c];
    }
  }
  fp += "]|mech=" + mechanism_name;
  fp += "|alpha=" + FormatDoubleKey(alpha);
  fp += "|eps=" + FormatDoubleKey(epsilon);
  fp += "|delta=" + FormatDoubleKey(delta);
  return fp;
}

void RenderRows(const CodedTable& coded, size_t begin, size_t end,
                std::vector<std::vector<std::string>>* rows) {
  for (size_t r = begin; r < end; ++r) {
    std::vector<std::string> row;
    row.reserve(coded.columns.size());
    for (const CodedColumn& column : coded.columns) {
      row.push_back(column.dict[column.codes[r]]);
    }
    (*rows)[r] = std::move(row);
  }
}

TableData RenderTable(const CodedTable& coded) {
  TableData table;
  table.name = coded.name;
  table.header = coded.header;
  table.rows.resize(coded.num_rows);
  RenderRows(coded, 0, coded.num_rows, &table.rows);
  return table;
}

Result<CodedTable> EncodeTable(const TableData& table) {
  const size_t n = table.rows.size();
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("table '" + table.name +
                                   "' has more rows than 32-bit codes index");
  }
  for (size_t r = 0; r < n; ++r) {
    if (table.rows[r].size() != table.header.size()) {
      return Status::InvalidArgument(
          "table '" + table.name + "' row " + std::to_string(r) + " has " +
          std::to_string(table.rows[r].size()) + " cells for " +
          std::to_string(table.header.size()) + " columns");
    }
  }
  CodedTable coded;
  coded.name = table.name;
  coded.header = table.header;
  coded.num_rows = n;
  coded.columns.resize(table.header.size());
  // Intern each column's values in first-seen order, then recode them by
  // byte-order rank so that comparing codes compares the strings.
  std::unordered_map<std::string_view, uint32_t> interned;
  std::vector<std::string_view> distinct;
  std::vector<uint32_t> order;
  std::vector<uint32_t> rank;
  for (size_t c = 0; c < coded.columns.size(); ++c) {
    CodedColumn& column = coded.columns[c];
    interned.clear();
    distinct.clear();
    column.codes.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const auto [it, inserted] = interned.try_emplace(
          table.rows[r][c], static_cast<uint32_t>(distinct.size()));
      if (inserted) distinct.push_back(it->first);
      column.codes[r] = it->second;
    }
    order.resize(distinct.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&distinct](uint32_t a, uint32_t b) {
      return distinct[a] < distinct[b];
    });
    rank.resize(distinct.size());
    column.dict.reserve(distinct.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = i;
      column.dict.emplace_back(distinct[order[i]]);
    }
    for (uint32_t& code : column.codes) code = rank[code];
  }
  return coded;
}

// ---------------------------------------------------------------------------
// Open / recovery.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Store>> Store::Open(const std::string& dir) {
  std::unique_ptr<Store> st(new Store(dir));
  EEP_RETURN_NOT_OK(st->Recover());
  return st;
}

Result<std::unique_ptr<Store>> Store::OpenReadOnly(const std::string& dir) {
  std::unique_ptr<Store> st(new Store(dir));
  st->read_only_ = true;
  // Refresh does exactly the read-side half of recovery: load whatever
  // manifest is committed right now (possibly none) and validate its
  // segments, touching nothing on disk.
  EEP_RETURN_NOT_OK(st->Refresh().status());
  return st;
}

Status Store::ValidateEpochSegments(const EpochInfo& info) const {
  Env* env = Env::Default();
  for (const TableMeta& meta : info.tables) {
    const std::string path = dir_ + "/" + meta.segment_file;
    EEP_ASSIGN_OR_RETURN(bool exists, env->FileExists(path));
    if (!exists) {
      return Status::IOError("committed segment missing: " + path);
    }
    EEP_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
    if (size != meta.size_bytes) {
      return Status::IOError(
          "committed segment '" + path + "' is " + std::to_string(size) +
          " bytes, manifest records " + std::to_string(meta.size_bytes));
    }
  }
  return Status::OK();
}

Status Store::LoadManifest(uint64_t* file_size) {
  Env* env = Env::Default();
  const std::string path = dir_ + "/" + kManifestName;
  *file_size = manifest_bytes_;
  if (manifest_bytes_ == 0) {
    // Nothing committed yet (a read-only open may even precede the
    // directory). The writer's first commit will show up next poll.
    EEP_ASSIGN_OR_RETURN(bool has_manifest, env->FileExists(path));
    if (!has_manifest) return Status::OK();
  }
  EEP_ASSIGN_OR_RETURN(*file_size, env->FileSize(path));
  if (*file_size == manifest_bytes_) return Status::OK();

  EEP_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                       env->NewRandomAccessFile(path));
  *file_size = file->size();
  if (*file_size < manifest_bytes_) {
    return Status::IOError("MANIFEST is " + std::to_string(*file_size) +
                           " bytes, shorter than the " +
                           std::to_string(manifest_bytes_) +
                           " already validated");
  }
  std::string tail;
  EEP_RETURN_NOT_OK(
      file->Read(manifest_bytes_, *file_size - manifest_bytes_, &tail));
  std::vector<EpochInfo> fresh;
  size_t complete = 0;
  EEP_RETURN_NOT_OK(
      ParseManifest(tail, manifest_bytes_, last_epoch_, &fresh, &complete));
  // Validate before publishing anything, so a failed load leaves the
  // instance on its previous (consistent) epoch set.
  for (const EpochInfo& info : fresh) {
    EEP_RETURN_NOT_OK(ValidateEpochSegments(info));
  }
  manifest_bytes_ += complete;
  for (EpochInfo& info : fresh) {
    last_epoch_ = info.epoch;
    epochs_[info.epoch] = std::move(info);
  }
  return Status::OK();
}

Result<uint64_t> Store::Refresh() {
  uint64_t file_size = 0;
  EEP_RETURN_NOT_OK(LoadManifest(&file_size));
  return last_epoch_;
}

Status Store::Recover() {
  Env* env = Env::Default();
  EEP_RETURN_NOT_OK(env->CreateDirIfMissing(dir_));

  // 1. The manifest: every complete frame must validate and every
  //    committed segment must exist at its recorded size (the segment and
  //    directory fsyncs precede the append, so a violation is corruption,
  //    not a crash artifact; segment CRCs are verified on every read).
  uint64_t file_size = 0;
  EEP_RETURN_NOT_OK(LoadManifest(&file_size));

  // 2. The torn tail of an interrupted append is dead weight, never
  //    state: cut it off so the next commit appends after whole frames.
  if (file_size > manifest_bytes_) {
    EEP_RETURN_NOT_OK(
        env->TruncateFile(dir_ + "/" + kManifestName, manifest_bytes_));
  }

  // 3. Remove orphans: segments written by a commit that never appended
  //    its record, stray temp files. Never files the manifest references.
  std::vector<std::string> referenced;
  for (const auto& [epoch, info] : epochs_) {
    (void)epoch;
    for (const TableMeta& meta : info.tables) {
      referenced.push_back(meta.segment_file);
    }
  }
  std::sort(referenced.begin(), referenced.end());
  EEP_ASSIGN_OR_RETURN(std::vector<std::string> entries, env->ListDir(dir_));
  for (const std::string& entry : entries) {
    if (entry == kManifestName) continue;
    const bool is_segment =
        entry.size() > 4 && entry.compare(entry.size() - 4, 4, ".seg") == 0;
    const bool is_tmp =
        entry.size() > 4 && entry.compare(entry.size() - 4, 4, ".tmp") == 0;
    if (!is_segment && !is_tmp) continue;
    if (std::binary_search(referenced.begin(), referenced.end(), entry)) {
      continue;
    }
    EEP_RETURN_NOT_OK(env->RemoveFile(dir_ + "/" + entry));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------------

Status Store::WriteSegment(const std::string& file, const CodedTable& table,
                           TableMeta* meta) const {
  Env* env = Env::Default();
  const std::string path = dir_ + "/" + file;
  EEP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                       env->NewWritableFile(path));
  uint32_t file_crc = 0;

  const auto append_block = [&](const std::string& payload) -> Status {
    EEP_FAILPOINT("store/segment-write");
    const std::string frame = Frame(payload);
    EEP_RETURN_NOT_OK(out->Append(frame));
    file_crc = Crc32cExtend(file_crc, frame.data(), frame.size());
    return Status::OK();
  };

  // Header block: magic, table name, per column its name and dictionary
  // size, row count.
  std::string header;
  PutLengthPrefixed(&header, kSegmentMagic);
  PutLengthPrefixed(&header, table.name);
  PutFixed32(&header, static_cast<uint32_t>(table.header.size()));
  for (size_t col = 0; col < table.header.size(); ++col) {
    PutLengthPrefixed(&header, table.header[col]);
    PutFixed32(&header, static_cast<uint32_t>(table.columns[col].dict.size()));
  }
  PutFixed64(&header, table.num_rows);
  EEP_RETURN_NOT_OK(append_block(header));

  // Column by column: the dictionary chunks, then the code chunks.
  for (size_t col = 0; col < table.columns.size(); ++col) {
    const CodedColumn& column = table.columns[col];
    for (size_t first = 0, end = 0; first < column.dict.size(); first = end) {
      size_t bytes = 0;
      while (end < column.dict.size() && bytes < kColumnChunkBytes) {
        bytes += 4 + column.dict[end++].size();
      }
      std::string chunk = ChunkHeader(col, kDictChunk, first, end - first);
      chunk.reserve(chunk.size() + bytes);
      for (size_t i = first; i < end; ++i) {
        PutLengthPrefixed(&chunk, column.dict[i]);
      }
      EEP_RETURN_NOT_OK(append_block(chunk));
    }
    const uint32_t width = CodeWidth(column.dict.size());
    const size_t codes_per_chunk = kColumnChunkBytes / width;
    for (size_t first = 0; first < column.codes.size();
         first += codes_per_chunk) {
      const size_t end = std::min(column.codes.size(), first + codes_per_chunk);
      std::string chunk = ChunkHeader(col, kCodeChunk, first, end - first);
      const size_t at = chunk.size();
      chunk.resize(at + (end - first) * width);
      for (size_t r = first; r < end; ++r) {
        PutCode(&chunk[at + (r - first) * width], column.codes[r], width);
      }
      EEP_RETURN_NOT_OK(append_block(chunk));
    }
  }

  EEP_FAILPOINT("store/segment-sync");
  EEP_RETURN_NOT_OK(out->Sync());
  EEP_RETURN_NOT_OK(out->Close());

  meta->name = table.name;
  meta->segment_file = file;
  meta->size_bytes = out->bytes_written();
  meta->crc32c = file_crc;
  meta->num_rows = table.num_rows;
  return Status::OK();
}

Status Store::AppendManifestRecord(const std::string& record,
                                   bool* appending) {
  Env* env = Env::Default();
  const bool first = manifest_bytes_ == 0;
  std::string frames;
  if (first) {
    std::string header;
    PutLengthPrefixed(&header, kManifestMagic);
    frames = ManifestFrame(header);
  }
  frames += ManifestFrame(record);

  EEP_FAILPOINT("store/wal-append");
  EEP_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> out,
      env->NewAppendableFile(dir_ + "/" + kManifestName));
  *appending = true;
  EEP_RETURN_NOT_OK(out->Append(frames));
  // The first commit created MANIFEST: make its name durable too.
  if (first) EEP_RETURN_NOT_OK(env->SyncDir(dir_));
  // The commit point: once the record is durable, so is the epoch.
  EEP_FAILPOINT("store/wal-sync");
  EEP_RETURN_NOT_OK(out->Sync());
  EEP_RETURN_NOT_OK(out->Close());
  manifest_bytes_ += frames.size();
  return Status::OK();
}

Result<uint64_t> Store::CommitEpoch(const std::string& fingerprint,
                                    const std::vector<TableData>& tables) {
  std::vector<CodedTable> coded;
  coded.reserve(tables.size());
  for (const TableData& table : tables) {
    EEP_ASSIGN_OR_RETURN(CodedTable encoded, EncodeTable(table));
    coded.push_back(std::move(encoded));
  }
  return CommitEpoch(fingerprint, coded);
}

Result<uint64_t> Store::CommitEpoch(const std::string& fingerprint,
                                    const std::vector<CodedTable>& tables) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "CommitEpoch on a read-only store (OpenReadOnly)");
  }
  if (stale_) {
    return Status::FailedPrecondition(
        "CommitEpoch after a failed commit on this instance; reopen the "
        "store directory to continue");
  }
  if (tables.empty()) {
    return Status::InvalidArgument("CommitEpoch: empty table set");
  }
  std::vector<std::string> names;
  for (const CodedTable& table : tables) {
    names.push_back(table.name);
    if (std::string problem = FormatProblem(table); !problem.empty()) {
      return Status::InvalidArgument("CommitEpoch: table '" + table.name +
                                     "': " + problem);
    }
  }
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    return Status::InvalidArgument("CommitEpoch: duplicate table name");
  }

  const uint64_t epoch = last_epoch_ + 1;
  EpochInfo info;
  info.epoch = epoch;
  info.fingerprint = fingerprint;

  // Steps 1-2: segments, each fully durable before the manifest names it,
  // and their names durable in the directory.
  Status failed = Status::OK();
  bool appending = false;
  for (size_t t = 0; t < tables.size(); ++t) {
    TableMeta meta;
    failed = WriteSegment(SegmentFileName(epoch, t), tables[t], &meta);
    if (!failed.ok()) break;
    info.tables.push_back(std::move(meta));
  }
  if (failed.ok()) failed = Env::Default()->SyncDir(dir_);
  if (failed.ok()) {
    // Steps 3-4: append the epoch record and make it durable.
    std::string record;
    PutLengthPrefixed(&record, kEpochTag);
    PutFixed64(&record, epoch);
    PutLengthPrefixed(&record, fingerprint);
    PutFixed32(&record, static_cast<uint32_t>(info.tables.size()));
    for (const TableMeta& meta : info.tables) {
      PutLengthPrefixed(&record, meta.name);
      PutLengthPrefixed(&record, meta.segment_file);
      PutFixed64(&record, meta.size_bytes);
      PutFixed32(&record, meta.crc32c);
      PutFixed64(&record, meta.num_rows);
    }
    failed = AppendManifestRecord(record, &appending);
  }
  if (!failed.ok()) {
    // This instance no longer knows what the directory holds: a retry
    // could rewrite a committed epoch or append after a torn record.
    stale_ = true;
    // Once a record byte may have reached MANIFEST the epoch may be
    // committed (a reopen serves it if the record is whole), so its
    // segments are left for recovery to judge. Before that they are
    // orphans: best-effort cleanup here; under an injected crash these
    // removals fail too, and Store::Open's recovery removes them instead.
    if (!appending) {
      for (size_t t = 0; t < tables.size(); ++t) {
        const std::string path = dir_ + "/" + SegmentFileName(epoch, t);
        auto exists = Env::Default()->FileExists(path);
        if (exists.ok() && exists.value()) {
          (void)Env::Default()->RemoveFile(path).ok();
        }
      }
    }
    return failed;
  }

  last_epoch_ = epoch;
  epochs_[epoch] = std::move(info);
  return epoch;
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

std::vector<uint64_t> Store::Epochs() const {
  std::vector<uint64_t> out;
  out.reserve(epochs_.size());
  for (const auto& [epoch, info] : epochs_) {
    (void)info;
    out.push_back(epoch);
  }
  return out;
}

Result<const EpochInfo*> Store::GetEpoch(uint64_t epoch) const {
  auto it = epochs_.find(epoch);
  if (it == epochs_.end()) {
    return Status::NotFound("no committed epoch " + std::to_string(epoch));
  }
  return &it->second;
}

Result<const EpochInfo*> Store::CurrentEpoch() const {
  if (last_epoch_ == 0) return Status::NotFound("store has no epochs");
  return GetEpoch(last_epoch_);
}

Result<CodedTable> Store::ReadCoded(uint64_t epoch,
                                    const std::string& name) const {
  EEP_ASSIGN_OR_RETURN(const EpochInfo* info, GetEpoch(epoch));
  const TableMeta* meta = nullptr;
  for (const TableMeta& candidate : info->tables) {
    if (candidate.name == name) {
      meta = &candidate;
      break;
    }
  }
  if (meta == nullptr) {
    return Status::NotFound("epoch " + std::to_string(epoch) +
                            " has no table '" + name + "'");
  }

  const std::string path = dir_ + "/" + meta->segment_file;
  EEP_ASSIGN_OR_RETURN(std::string file,
                       Env::Default()->ReadFileToString(path));
  if (file.size() != meta->size_bytes) {
    return Status::IOError("segment '" + path + "' is " +
                           std::to_string(file.size()) +
                           " bytes, manifest records " +
                           std::to_string(meta->size_bytes));
  }
  if (Crc32c(file) != meta->crc32c) {
    return Status::IOError("segment '" + path +
                           "' fails its manifest whole-file checksum");
  }

  const std::string_view data(file);
  size_t pos = 0;
  std::string_view payload;
  EEP_RETURN_NOT_OK(ReadFrame(data, &pos, &payload, path));
  CodedTable table;
  std::vector<uint32_t> dict_sizes;
  {
    PayloadReader reader(payload, path + " header");
    EEP_RETURN_NOT_OK(reader.ExpectTag(kSegmentMagic));
    EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&table.name));
    uint32_t num_columns = 0;
    EEP_RETURN_NOT_OK(reader.GetFixed32(&num_columns));
    for (uint32_t c = 0; c < num_columns; ++c) {
      std::string column;
      uint32_t dict_size = 0;
      EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&column));
      EEP_RETURN_NOT_OK(reader.GetFixed32(&dict_size));
      table.header.push_back(std::move(column));
      dict_sizes.push_back(dict_size);
    }
    EEP_RETURN_NOT_OK(reader.GetFixed64(&table.num_rows));
    if (!reader.AtEnd()) {
      return Status::IOError(path + ": header block carries trailing bytes");
    }
  }
  if (table.name != name) {
    return Status::IOError("segment '" + path + "' holds table '" +
                           table.name + "', manifest records '" + name + "'");
  }
  if (table.num_rows != meta->num_rows) {
    return Status::IOError(path + ": header row count disagrees with manifest");
  }

  // Chunks must arrive column by column, dictionary before codes, each
  // starting where the previous one of its kind ended.
  const auto next_chunk = [&](size_t col, uint32_t kind, uint64_t filled,
                              uint64_t total, PayloadReader* reader,
                              uint32_t* entries) -> Status {
    if (pos == data.size()) {
      return Status::IOError(
          path + ": column " + std::to_string(col) + " is incomplete: " +
          std::to_string(filled) + " of " + std::to_string(total) +
          (kind == kDictChunk ? " dictionary values" : " codes"));
    }
    EEP_RETURN_NOT_OK(ReadFrame(data, &pos, &payload, path));
    *reader = PayloadReader(payload, path + " column chunk");
    uint32_t got_col = 0;
    uint32_t got_kind = 0;
    uint64_t first = 0;
    EEP_RETURN_NOT_OK(reader->GetFixed32(&got_col));
    EEP_RETURN_NOT_OK(reader->GetFixed32(&got_kind));
    EEP_RETURN_NOT_OK(reader->GetFixed64(&first));
    EEP_RETURN_NOT_OK(reader->GetFixed32(entries));
    if (got_col != col || got_kind != kind || first != filled ||
        *entries == 0 || *entries > total - filled) {
      return Status::IOError(path + ": column chunk out of order or range");
    }
    return Status::OK();
  };

  table.columns.resize(table.header.size());
  for (size_t col = 0; col < table.columns.size(); ++col) {
    CodedColumn& column = table.columns[col];
    const uint32_t dict_size = dict_sizes[col];
    PayloadReader reader{std::string_view(), std::string()};
    uint32_t entries = 0;
    column.dict.reserve(std::min<size_t>(dict_size, data.size() / 4));
    while (column.dict.size() < dict_size) {
      EEP_RETURN_NOT_OK(next_chunk(col, kDictChunk, column.dict.size(),
                                   dict_size, &reader, &entries));
      for (uint32_t i = 0; i < entries; ++i) {
        std::string_view value;
        EEP_RETURN_NOT_OK(reader.GetLengthPrefixed(&value));
        column.dict.emplace_back(value);
      }
      if (!reader.AtEnd()) {
        return Status::IOError(path + ": column chunk carries trailing bytes");
      }
    }
    const uint32_t width = CodeWidth(dict_size);
    column.codes.reserve(std::min<size_t>(table.num_rows, data.size()));
    while (column.codes.size() < table.num_rows) {
      EEP_RETURN_NOT_OK(next_chunk(col, kCodeChunk, column.codes.size(),
                                   table.num_rows, &reader, &entries));
      if (reader.remaining() != uint64_t{entries} * width) {
        return Status::IOError(
            path + ": code chunk of column " + std::to_string(col) +
            " holds " + std::to_string(reader.remaining()) + " bytes for " +
            std::to_string(entries) + " codes of " + std::to_string(width) +
            " bytes");
      }
      std::string_view bytes;
      EEP_RETURN_NOT_OK(reader.GetBytes(reader.remaining(), &bytes));
      for (uint32_t i = 0; i < entries; ++i) {
        column.codes.push_back(
            DecodeCode(bytes.data() + size_t{i} * width, width));
      }
    }
  }
  if (pos != data.size()) {
    return Status::IOError(path + ": blocks past the last column");
  }
  if (std::string problem = FormatProblem(table); !problem.empty()) {
    return Status::IOError(path + ": " + problem);
  }
  return table;
}

Result<TableData> Store::ReadTable(uint64_t epoch,
                                   const std::string& name) const {
  EEP_ASSIGN_OR_RETURN(CodedTable coded, ReadCoded(epoch, name));
  return RenderTable(coded);
}

Result<std::vector<TableData>> Store::ReadEpoch(uint64_t epoch) const {
  EEP_ASSIGN_OR_RETURN(const EpochInfo* info, GetEpoch(epoch));
  std::vector<TableData> tables;
  tables.reserve(info->tables.size());
  for (const TableMeta& meta : info->tables) {
    EEP_ASSIGN_OR_RETURN(TableData table, ReadTable(epoch, meta.name));
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace eep::store
