// The crash-safe release store, happy paths: round trips (chunking and
// code widths of the dictionary-coded segments included), epoch
// supersession, reopen after a clean close, validation errors, and the
// segment decoder's format checks on well-framed segments. Also the
// append-only manifest's edge cases: a torn final record at every prefix
// length, a flipped bit in the last record's header, and a writer whose
// commit failed. The crash and corruption halves of the durability
// contract live in store_crash_matrix_test.cc.
#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace eep::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_store_test";
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TableData MakeTable(const std::string& name, int rows, int salt = 0) {
  TableData table;
  table.name = name;
  table.header = {"place", "sector", "count"};
  for (int r = 0; r < rows; ++r) {
    table.rows.push_back({"place-" + std::to_string((r + salt) % 7),
                          "s" + std::to_string(r % 3),
                          std::to_string(r * 11 + salt)});
  }
  return table;
}

TEST_F(StoreTest, RoundTripSingleEpoch) {
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->last_committed_epoch(), 0u);
  EXPECT_EQ(store.value()->CurrentEpoch().status().code(),
            StatusCode::kNotFound);

  const std::vector<TableData> tables = {MakeTable("alpha", 40),
                                         MakeTable("beta", 3, 9)};
  auto epoch = store.value()->CommitEpoch("fp-v1", tables);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch.value(), 1u);
  EXPECT_EQ(store.value()->last_committed_epoch(), 1u);

  auto info = store.value()->CurrentEpoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value()->fingerprint, "fp-v1");
  ASSERT_EQ(info.value()->tables.size(), 2u);
  EXPECT_EQ(info.value()->tables[0].name, "alpha");
  EXPECT_EQ(info.value()->tables[0].num_rows, 40u);

  auto read = store.value()->ReadEpoch(1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_TRUE(read.value()[0] == tables[0]);
  EXPECT_TRUE(read.value()[1] == tables[1]);
}

TEST_F(StoreTest, RoundTripHostileStrings) {
  // CSV-hostile and binary-hostile cell values: the framed columnar format
  // is length-prefixed, so none of this needs escaping.
  TableData table;
  table.name = "hostile";
  table.header = {"value", "count"};
  table.rows = {{"comma,quote\"and\nnewline", "1"},
                {std::string("embedded\0nul", 12), "2"},
                {std::string(100000, '\xab'), "3"},
                {"", ""}};
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp", {table}).ok());
  auto read = store.value()->ReadTable(1, "hostile");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == table);
}

TEST_F(StoreTest, ZeroRowTableRoundTrips) {
  TableData empty;
  empty.name = "empty";
  empty.header = {"a", "b"};
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp", {empty}).ok());
  auto read = store.value()->ReadTable(1, "empty");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == empty);
}

// ---------------------------------------------------------------------------
// Segment surgery: the frame and chunk layout store.h documents, rebuilt
// here so tests can count chunks and hand the decoder well-framed segments
// whose content breaks the format.
// ---------------------------------------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int b = 0; b < 4; ++b) out->push_back(static_cast<char>(v >> (8 * b)));
}
void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}
uint32_t GetU32(const std::string& s, size_t at) {
  uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(s[at + b]))
         << (8 * b);
  }
  return v;
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  *out += s;
}

/// The payloads of a file of [u32 len][u32 masked crc32c][payload] frames.
std::vector<std::string> SplitFrames(const std::string& file) {
  std::vector<std::string> payloads;
  for (size_t pos = 0; pos + 8 <= file.size();) {
    const uint32_t len = GetU32(file, pos);
    payloads.push_back(file.substr(pos + 8, len));
    pos += 8 + len;
  }
  return payloads;
}

std::string JoinFrames(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& payload : payloads) {
    PutU32(&out, static_cast<uint32_t>(payload.size()));
    PutU32(&out, Crc32cMask(Crc32c(payload)));
    out += payload;
  }
  return out;
}

/// A column chunk: [u32 column][u32 kind: 0 dictionary, 1 codes]
/// [u64 first index][u32 entries] then the entries.
constexpr size_t kChunkHeaderBytes = 20;
std::string Chunk(uint32_t column, uint32_t kind, uint64_t first,
                  uint32_t entries, const std::string& body) {
  std::string chunk;
  PutU32(&chunk, column);
  PutU32(&chunk, kind);
  PutU64(&chunk, first);
  PutU32(&chunk, entries);
  return chunk + body;
}

std::vector<std::string> SegmentPayloads(const std::string& dir,
                                         const std::string& file) {
  return SplitFrames(Env::Default()->ReadFileToString(dir + "/" + file)
                         .value());
}

/// The chunks of `column` of one kind, in file order.
std::vector<std::string> ColumnChunks(const std::vector<std::string>& payloads,
                                      uint32_t column, uint32_t kind) {
  std::vector<std::string> chunks;
  for (size_t i = 1; i < payloads.size(); ++i) {
    if (GetU32(payloads[i], 0) == column && GetU32(payloads[i], 4) == kind) {
      chunks.push_back(payloads[i]);
    }
  }
  return chunks;
}

/// The payloads of a MANIFEST, whose frames also check their own header:
/// [u32 len][u32 masked crc32c][u32 masked crc32c of the 8 bytes before].
constexpr size_t kManifestFrameHeaderBytes = 12;
std::vector<std::string> SplitManifestFrames(const std::string& file) {
  std::vector<std::string> payloads;
  for (size_t pos = 0; pos + kManifestFrameHeaderBytes <= file.size();) {
    const uint32_t len = GetU32(file, pos);
    payloads.push_back(file.substr(pos + kManifestFrameHeaderBytes, len));
    pos += kManifestFrameHeaderBytes + len;
  }
  return payloads;
}

std::string JoinManifestFrames(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& payload : payloads) {
    std::string header;
    PutU32(&header, static_cast<uint32_t>(payload.size()));
    PutU32(&header, Crc32cMask(Crc32c(payload)));
    PutU32(&header, Crc32cMask(Crc32c(header)));
    out += header + payload;
  }
  return out;
}

/// Replaces committed segment `file` with `payloads` under valid frame
/// checksums and re-records its size and whole-file CRC in the MANIFEST,
/// so that only the decoder's format checks stand between the edit and a
/// reader.
void RewriteSegment(const std::string& dir, const std::string& file,
                    const std::vector<std::string>& payloads) {
  const std::string segment = JoinFrames(payloads);
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(dir + "/" + file, segment, false).ok());
  std::vector<std::string> manifest = SplitManifestFrames(
      Env::Default()->ReadFileToString(dir + "/MANIFEST").value());
  ASSERT_EQ(manifest.size(), 2u);  // format record + one epoch record
  std::string name;
  PutString(&name, file);
  const size_t at = manifest[1].find(name);
  ASSERT_NE(at, std::string::npos);
  std::string meta;
  PutU64(&meta, segment.size());
  PutU32(&meta, Crc32c(segment));
  manifest[1].replace(at + name.size(), meta.size(), meta);
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(dir + "/MANIFEST",
                                      JoinManifestFrames(manifest), false)
                  .ok());
}

TEST_F(StoreTest, LargeTableSpansMultipleChunks) {
  // Each column below is too big for one 256 KiB chunk: a dictionary of
  // 200 distinct 4 KiB values, and 300,000 rows of 1-byte codes.
  TableData blobs;
  blobs.name = "blobs";
  blobs.header = {"blob", "count"};
  for (int r = 0; r < 200; ++r) {
    blobs.rows.push_back({std::string(4096, static_cast<char>('a' + r % 26)) +
                              std::to_string(r),
                          std::to_string(r)});
  }
  TableData tall;
  tall.name = "tall";
  tall.header = {"label", "count"};
  for (int r = 0; r < 300000; ++r) {
    tall.rows.push_back(
        {"label-" + std::to_string(r % 251), std::to_string(r % 7)});
  }
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp", {blobs, tall}).ok());
  const std::vector<std::string> blob_segment =
      SegmentPayloads(dir_, "ep1-t0.seg");
  const std::vector<std::string> tall_segment =
      SegmentPayloads(dir_, "ep1-t1.seg");
  EXPECT_GE(ColumnChunks(blob_segment, 0, /*dictionary*/ 0).size(), 3u);
  const std::vector<std::string> tall_codes =
      ColumnChunks(tall_segment, 0, /*codes*/ 1);
  ASSERT_GE(tall_codes.size(), 2u);
  EXPECT_EQ(tall_codes[0].size() - kChunkHeaderBytes, 256u * 1024u);

  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto read = reopened.value()->ReadEpoch(1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_TRUE(read.value()[0] == blobs);
  EXPECT_TRUE(read.value()[1] == tall);
}

TEST_F(StoreTest, CodeWidthBoundariesRoundTrip) {
  // 256 and 65,536 distinct values are the most that 1- and 2-byte codes
  // index; 257 and 65,537 take the next width. Values arrive permuted and
  // repeat, so codes are neither row numbers nor first-seen order.
  const std::vector<std::pair<int, size_t>> distinct_and_width = {
      {256, 1}, {257, 2}, {65536, 2}, {65537, 4}};
  std::vector<TableData> tables;
  for (const auto& [distinct, width] : distinct_and_width) {
    TableData table;
    table.name = "distinct-" + std::to_string(distinct);
    table.header = {"value", "count"};
    for (int r = 0; r < distinct + 100; ++r) {
      table.rows.push_back(
          {"v" + std::to_string((int64_t{r} * 7919) % distinct),
           std::to_string(r % 3)});
    }
    tables.push_back(std::move(table));
  }
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp", tables).ok());
  auto read = store.value()->ReadEpoch(1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), tables);
  for (size_t t = 0; t < tables.size(); ++t) {
    size_t code_bytes = 0;
    for (const std::string& chunk :
         ColumnChunks(SegmentPayloads(dir_, "ep1-t" + std::to_string(t) +
                                                ".seg"),
                      0, /*codes*/ 1)) {
      code_bytes += chunk.size() - kChunkHeaderBytes;
    }
    EXPECT_EQ(code_bytes,
              tables[t].rows.size() * distinct_and_width[t].second)
        << tables[t].name;
  }
}

TEST_F(StoreTest, ReadCodedRefusesWellFramedSegmentsThatBreakTheFormat) {
  TableData table;
  table.name = "t";
  table.header = {"k", "count"};
  table.rows = {{"b", "2"}, {"a", "1"}, {"c", "2"}};
  {
    auto store = Store::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp", {table}).ok());
  }
  const auto header = [](const std::string& tag, uint32_t k_dict,
                         uint32_t count_dict) {
    std::string h;
    PutString(&h, tag);
    PutString(&h, "t");
    PutU32(&h, 2);
    PutString(&h, "k");
    PutU32(&h, k_dict);
    PutString(&h, "count");
    PutU32(&h, count_dict);
    PutU64(&h, 3);
    return h;
  };
  const auto dict = [](const std::vector<std::string>& values) {
    std::string body;
    for (const std::string& v : values) PutString(&body, v);
    return Chunk(0, 0, 0, static_cast<uint32_t>(values.size()), body);
  };
  // The committed layout, block by block.
  const std::vector<std::string> committed =
      SegmentPayloads(dir_, "ep1-t0.seg");
  const std::string codes = Chunk(0, 1, 0, 3, std::string("\x01\x00\x02", 3));
  std::string count_dict;
  PutString(&count_dict, "1");
  PutString(&count_dict, "2");
  ASSERT_EQ(committed,
            (std::vector<std::string>{
                header("EEPSEG2", 3, 2), dict({"a", "b", "c"}), codes,
                Chunk(1, 0, 0, 2, count_dict),
                Chunk(1, 1, 0, 3, std::string("\x01\x00\x01", 3))}));

  struct Case {
    const char* what;
    std::vector<std::string> payloads;
    const char* message;
  };
  const auto edit = [&committed](size_t block, const std::string& payload) {
    std::vector<std::string> payloads = committed;
    payloads[block] = payload;
    return payloads;
  };
  const auto without = [&committed](size_t block) {
    std::vector<std::string> payloads = committed;
    payloads.erase(payloads.begin() + static_cast<std::ptrdiff_t>(block));
    return payloads;
  };
  std::vector<std::string> swapped = committed;
  std::swap(swapped[1], swapped[2]);
  std::vector<std::string> extra = committed;
  extra.push_back(committed.back());
  std::vector<std::string> no_k_dict = without(1);
  no_k_dict[0] = header("EEPSEG2", 0, 2);
  std::vector<std::string> oversized = edit(1, dict({"a", "b", "c", "d"}));
  oversized[0] = header("EEPSEG2", 4, 2);
  const std::vector<Case> cases = {
      {"descending dictionary", edit(1, dict({"b", "a", "c"})),
       "not strictly ascending"},
      {"repeated dictionary value", edit(1, dict({"a", "a", "c"})),
       "not strictly ascending"},
      {"code past the dictionary",
       edit(2, Chunk(0, 1, 0, 3, std::string("\x01\x00\x03", 3))),
       "past its 3-value dictionary"},
      {"empty dictionary with rows", no_k_dict, "dictionary of 0 values"},
      {"dictionary larger than the rows", oversized,
       "dictionary of 4 values for 3 rows"},
      {"codes before the dictionary", swapped, "out of order or range"},
      {"chunk starting past its predecessor",
       edit(2, Chunk(0, 1, 1, 2, std::string("\x00\x02", 2))),
       "out of order or range"},
      {"chunk past the row count",
       edit(2, Chunk(0, 1, 0, 4, std::string("\x01\x00\x02\x02", 4))),
       "out of order or range"},
      {"code chunk length not rows x width",
       edit(2, Chunk(0, 1, 0, 3, std::string("\x01\x00\x02\x02", 4))),
       "holds 4 bytes for 3 codes"},
      {"incomplete column", without(4), "column 1 is incomplete"},
      {"block past the last column", extra, "past the last column"},
      {"stale format tag", edit(0, header("EEPSEG1", 3, 2)),
       "expected tag 'EEPSEG2', found 'EEPSEG1'"},
  };
  RewriteSegment(dir_, "ep1-t0.seg", committed);
  {
    auto store = Store::OpenReadOnly(dir_);
    ASSERT_TRUE(store.ok());
    auto read = store.value()->ReadTable(1, "t");
    ASSERT_TRUE(read.ok()) << "unedited rewrite: " << read.status().ToString();
    EXPECT_TRUE(read.value() == table);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    RewriteSegment(dir_, "ep1-t0.seg", c.payloads);
    auto store = Store::OpenReadOnly(dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto read = store.value()->ReadCoded(1, "t");
    ASSERT_EQ(read.status().code(), StatusCode::kIOError);
    EXPECT_NE(read.status().ToString().find(c.message), std::string::npos)
        << read.status().ToString();
    EXPECT_EQ(store.value()->ReadTable(1, "t").status().code(),
              StatusCode::kIOError);
  }
}

TEST_F(StoreTest, EpochSupersession) {
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  const std::vector<TableData> v1 = {MakeTable("t", 10, 1)};
  const std::vector<TableData> v2 = {MakeTable("t", 12, 2),
                                     MakeTable("extra", 4, 3)};
  ASSERT_TRUE(store.value()->CommitEpoch("fp-1", v1).ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp-2", v2).ok());
  EXPECT_EQ(store.value()->last_committed_epoch(), 2u);
  EXPECT_EQ(store.value()->Epochs(), (std::vector<uint64_t>{1, 2}));

  // The current epoch serves v2; epoch 1 stays readable as history.
  auto current = store.value()->ReadEpoch(2);
  ASSERT_TRUE(current.ok());
  ASSERT_EQ(current.value().size(), 2u);
  EXPECT_TRUE(current.value()[0] == v2[0]);
  auto history = store.value()->ReadTable(1, "t");
  ASSERT_TRUE(history.ok());
  EXPECT_TRUE(history.value() == v1[0]);
}

TEST_F(StoreTest, ReopenAfterCleanClose) {
  const std::vector<TableData> v1 = {MakeTable("t", 25)};
  const std::vector<TableData> v2 = {MakeTable("t", 30, 5)};
  {
    auto store = Store::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp-1", v1).ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp-2", v2).ok());
  }
  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->last_committed_epoch(), 2u);
  auto info = reopened.value()->CurrentEpoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value()->fingerprint, "fp-2");
  auto read = reopened.value()->ReadEpoch(2);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value()[0] == v2[0]);
  EXPECT_TRUE(reopened.value()->ReadEpoch(1).value()[0] == v1[0]);
  // And the reopened store keeps committing where the old one left off.
  ASSERT_TRUE(reopened.value()->CommitEpoch("fp-3", v1).ok());
  EXPECT_EQ(reopened.value()->last_committed_epoch(), 3u);
}

TEST_F(StoreTest, OrphanSegmentsRemovedAtOpen) {
  {
    auto store = Store::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp", {MakeTable("t", 5)}).ok());
  }
  // Plant the torn tail of an interrupted commit: orphan segments of a
  // never-committed epoch 2 and a staging manifest.
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(dir_ + "/ep2-t0.seg", "garbage", false)
                  .ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(dir_ + "/MANIFEST.tmp", "torn", false)
                  .ok());
  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->last_committed_epoch(), 1u);
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/ep2-t0.seg").value());
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/MANIFEST.tmp").value());
  // The committed segment survived.
  EXPECT_TRUE(reopened.value()->ReadTable(1, "t").ok());
}

TEST_F(StoreTest, CommitValidation) {
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()
                ->CommitEpoch("fp", std::vector<TableData>{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.value()
                ->CommitEpoch("fp", {MakeTable("dup", 2), MakeTable("dup", 3)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  TableData ragged = MakeTable("ragged", 3);
  ragged.rows[1].pop_back();
  EXPECT_EQ(store.value()->CommitEpoch("fp", {ragged}).status().code(),
            StatusCode::kInvalidArgument);
  // Nothing was committed, and no stray files survive the failed attempts.
  EXPECT_EQ(store.value()->last_committed_epoch(), 0u);
  EXPECT_EQ(Env::Default()->ListDir(dir_).value().size(), 0u);
}

TEST_F(StoreTest, CommitRefusesCodedTablesReadCodedWouldRefuse) {
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp-1", {MakeTable("t", 4)}).ok());
  const auto listing = [this] {
    std::vector<std::string> entries = Env::Default()->ListDir(dir_).value();
    std::sort(entries.begin(), entries.end());
    return entries;
  };
  const std::vector<std::string> before = listing();
  // Six rows: place has 6 distinct values, sector 3 and count 6.
  const CodedTable good = EncodeTable(MakeTable("t", 6, 1)).value();
  struct Case {
    const char* what;
    CodedTable table;
    const char* message;
  };
  std::vector<Case> cases;
  const auto add = [&cases, &good](const char* what, const char* message,
                                   const auto& edit) {
    Case c{what, good, message};
    edit(c.table);
    cases.push_back(std::move(c));
  };
  add("a column count that differs from the header",
      "2 columns for 3 header entries",
      [](CodedTable& t) { t.columns.pop_back(); });
  add("a code vector that is not num_rows long", "has 5 codes for 6 rows",
      [](CodedTable& t) { t.columns[1].codes.pop_back(); });
  add("a dictionary that is not strictly ascending", "not strictly ascending",
      [](CodedTable& t) {
        std::swap(t.columns[0].dict[0], t.columns[0].dict[1]);
      });
  add("a repeated dictionary value", "not strictly ascending",
      [](CodedTable& t) { t.columns[1].dict[1] = t.columns[1].dict[0]; });
  add("a code at its dictionary's size", "is past its 3-value dictionary",
      [](CodedTable& t) { t.columns[1].codes[4] = 3; });
  add("an empty dictionary with rows present", "dictionary of 0 values",
      [](CodedTable& t) { t.columns[2].dict.clear(); });
  add("a dictionary larger than the row count",
      "dictionary of 7 values for 6 rows", [](CodedTable& t) {
        for (const char* extra : {"s3", "s4", "s5", "s6"}) {
          t.columns[1].dict.push_back(extra);
        }
      });
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto result =
        store.value()->CommitEpoch("fp-bad", std::vector<CodedTable>{c.table});
    ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find(c.message), std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(listing(), before);
    EXPECT_EQ(store.value()->last_committed_epoch(), 1u);
  }
  // The refusals left the instance usable: the good table commits as epoch
  // 2 and reads back as committed.
  auto next = store.value()->CommitEpoch("fp-2", std::vector<CodedTable>{good});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), 2u);
  auto read = store.value()->ReadCoded(2, "t");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == good);
}

TEST_F(StoreTest, NotFoundLookups) {
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp", {MakeTable("t", 2)}).ok());
  EXPECT_EQ(store.value()->GetEpoch(9).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.value()->ReadTable(1, "missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.value()->ReadTable(2, "t").status().code(),
            StatusCode::kNotFound);
}

TEST_F(StoreTest, ConcurrentReadTableOnOneInstanceIsBitIdentical) {
  // The thread-compatibility half of the store contract (store.h): const
  // reads on ONE instance from many threads, no external locking. Every
  // read is positional (pread-style), so concurrent readers of the same
  // and different tables must each get the committed bytes back exactly.
  // ctest runs this binary under TSan in CI, which turns any hidden
  // shared cursor or lazy cache in the const path into a hard failure.
  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  const std::vector<TableData> tables = {
      MakeTable("alpha", 200), MakeTable("beta", 150, 5),
      MakeTable("gamma", 1, 9)};
  ASSERT_TRUE(store.value()->CommitEpoch("fp-1", tables).ok());
  ASSERT_TRUE(store.value()->CommitEpoch("fp-2", {MakeTable("alpha", 7, 2)})
                  .ok());

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    // eep-lint: disjoint-writes -- thread w writes errors[w] only; the
    // mismatch counter is atomic.
    pool.emplace_back([&, w] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        const TableData& want = tables[(w + i) % tables.size()];
        auto got = store.value()->ReadTable(1, want.name);
        if (!got.ok()) {
          errors[w] = got.status().ToString();
          return;
        }
        if (!(got.value() == want)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        auto epoch = store.value()->GetEpoch(2);
        if (!epoch.ok() || epoch.value()->tables.size() != 1) {
          errors[w] = "GetEpoch(2) failed under concurrency";
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_TRUE(errors[w].empty()) << "thread " << w << ": " << errors[w];
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(StoreTest, RefreshValidatesNewEpochsBeforePublishingThem) {
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {MakeTable("t", 6)}).ok());
  auto reader = Store::OpenReadOnly(dir_);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader.value()->last_committed_epoch(), 1u);

  // Commit epoch 2, then break its segment on disk: Refresh must refuse
  // to publish the new epoch (IOError) and leave the reader on its
  // previous consistent epoch set.
  ASSERT_TRUE(
      writer.value()->CommitEpoch("fp-2", {MakeTable("t", 9, 1)}).ok());
  std::string broken;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("ep2-", 0) == 0) {
      broken = entry.path().string();
    }
  }
  ASSERT_FALSE(broken.empty());
  std::filesystem::resize_file(broken,
                               std::filesystem::file_size(broken) / 2);
  EXPECT_EQ(reader.value()->Refresh().status().code(), StatusCode::kIOError);
  EXPECT_EQ(reader.value()->last_committed_epoch(), 1u);
  EXPECT_TRUE(reader.value()->ReadTable(1, "t").ok());
}

TEST_F(StoreTest, FailedCommitLeavesTheInstanceStaleUntilReopened) {
  const std::vector<TableData> v1 = {MakeTable("t", 5, 1)};
  const std::vector<TableData> v2 = {MakeTable("t", 6, 2)};
  const std::vector<TableData> v3 = {MakeTable("t", 7, 3)};
  auto writer = Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  // An argument error touches no file and leaves the instance usable.
  EXPECT_EQ(writer.value()
                ->CommitEpoch("fp-1", std::vector<TableData>{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", v1).ok());

  // A fault after the whole record reached MANIFEST: the call fails, yet
  // epoch 2 is committed and a reader serves it.
  FailpointSpec spec;
  spec.message = "EIO";
  FailpointRegistry::Instance().Arm("store/wal-sync", spec);
  EXPECT_EQ(writer.value()->CommitEpoch("fp-2", v2).status().code(),
            StatusCode::kIOError);
  FailpointRegistry::Instance().DisarmAll();

  // A retry on the failed instance would reuse epoch id 2: it must be
  // refused, both when it would succeed and when it would fail and clean
  // up "its" segments, which are epoch 2's.
  EXPECT_EQ(writer.value()->CommitEpoch("fp-3", v3).status().code(),
            StatusCode::kFailedPrecondition);
  FailpointRegistry::Instance().Arm("store/segment-write", spec);
  EXPECT_EQ(writer.value()->CommitEpoch("fp-3", v3).status().code(),
            StatusCode::kFailedPrecondition);
  FailpointRegistry::Instance().DisarmAll();

  auto reader = Store::OpenReadOnly(dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value()->last_committed_epoch(), 2u);
  auto served = reader.value()->ReadEpoch(2);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value(), v2);

  // Reopening is the way on: epoch 2 survives and the next commit is 3.
  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto next = reopened.value()->CommitEpoch("fp-3", v3);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), 3u);
  EXPECT_EQ(reopened.value()->ReadEpoch(2).value(), v2);
  ASSERT_TRUE(reader.value()->Refresh().ok());
  EXPECT_EQ(reader.value()->ReadEpoch(3).value(), v3);
}

std::string ReadManifest(const std::string& dir) {
  return Env::Default()->ReadFileToString(dir + "/MANIFEST").value();
}

/// Cuts MANIFEST (if any) to its first `keep` bytes and appends `tail`.
/// Only the tail is rewritten, the way a commit's append writes it.
void SetManifestTail(const std::string& dir, uint64_t keep,
                     const std::string& tail) {
  if (std::filesystem::exists(dir + "/MANIFEST")) {
    std::filesystem::resize_file(dir + "/MANIFEST", keep);
  }
  auto out = Env::Default()->NewAppendableFile(dir + "/MANIFEST");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value()->Append(tail).ok());
  ASSERT_TRUE(out.value()->Close().ok());
}

/// One torn append: MANIFEST holds `full`'s first `before` bytes plus
/// `cut` bytes of the frames after them, and the segments `full` names
/// are on disk. A reader that opened before the append ignores the torn
/// bytes; Open cuts them off; recommitting `tables` rebuilds `full`, and
/// both a fresh Open and the reader then serve it.
void ExpectTornAppendRecovers(const std::string& dir, const std::string& full,
                              uint64_t before, size_t cut,
                              const std::vector<TableData>& tables) {
  const uint64_t previous = before == 0 ? 0 : 1;
  const std::vector<uint64_t> previous_epochs(previous, 1);
  auto reader = Store::OpenReadOnly(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value()->last_committed_epoch(), previous);

  SetManifestTail(dir, before, full.substr(before, cut));
  auto refreshed = reader.value()->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.value(), previous);
  EXPECT_EQ(reader.value()->Epochs(), previous_epochs);

  auto writer = Store::Open(dir);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(writer.value()->last_committed_epoch(), previous);
  EXPECT_EQ(Env::Default()->FileSize(dir + "/MANIFEST").value(), before);

  auto next = writer.value()->CommitEpoch("fp-next", tables);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), previous + 1);
  EXPECT_EQ(ReadManifest(dir), full);
  auto fresh = Store::Open(dir);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto fresh_read = fresh.value()->ReadEpoch(previous + 1);
  ASSERT_TRUE(fresh_read.ok()) << fresh_read.status().ToString();
  EXPECT_EQ(fresh_read.value(), tables);
  refreshed = reader.value()->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.value(), previous + 1);
  auto reader_read = reader.value()->ReadEpoch(previous + 1);
  ASSERT_TRUE(reader_read.ok()) << reader_read.status().ToString();
  EXPECT_EQ(reader_read.value(), tables);
}

TEST_F(StoreTest, TornFinalRecordIsIgnoredByRefreshAndCutByOpen) {
  const std::vector<TableData> v2 = {MakeTable("t", 5, 2)};
  uint64_t before = 0;
  {
    auto writer = Store::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {MakeTable("t", 4)}).ok());
    before = ReadManifest(dir_).size();
    ASSERT_TRUE(writer.value()->CommitEpoch("fp-next", v2).ok());
  }
  const std::string full = ReadManifest(dir_);
  ASSERT_GT(full.size(), before + kManifestFrameHeaderBytes);
  for (size_t cut = 0; cut < full.size() - before; ++cut) {
    SCOPED_TRACE("last record cut after " + std::to_string(cut) + " bytes");
    SetManifestTail(dir_, before, "");
    ExpectTornAppendRecovers(dir_, full, before, cut, v2);
    if (HasFatalFailure()) return;
  }

  // A manifest shorter than what a reader already validated was not torn
  // by a crash: refreshing over it is an IOError.
  auto reader = Store::OpenReadOnly(dir_);
  ASSERT_TRUE(reader.ok());
  std::filesystem::resize_file(dir_ + "/MANIFEST", before);
  EXPECT_EQ(reader.value()->Refresh().status().code(), StatusCode::kIOError);
  EXPECT_EQ(reader.value()->last_committed_epoch(), 2u);
}

TEST_F(StoreTest, TornFirstCommitOpensAsAnEmptyStore) {
  const std::vector<TableData> v1 = {MakeTable("t", 4)};
  {
    auto writer = Store::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->CommitEpoch("fp-next", v1).ok());
  }
  // The header frame and the first record, appended together.
  const std::string full = ReadManifest(dir_);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE("first commit cut after " + std::to_string(cut) + " bytes");
    ASSERT_TRUE(Env::Default()->RemoveFile(dir_ + "/MANIFEST").ok());
    ExpectTornAppendRecovers(dir_, full, 0, cut, v1);
    if (HasFatalFailure()) return;
  }
}

TEST_F(StoreTest, FlippedBitInTheLastRecordHeaderIsIOErrorNeverATornTail) {
  uint64_t before = 0;
  {
    auto writer = Store::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {MakeTable("t", 4)}).ok());
    before = ReadManifest(dir_).size();
    ASSERT_TRUE(
        writer.value()->CommitEpoch("fp-2", {MakeTable("t", 5, 2)}).ok());
  }
  const std::string full = ReadManifest(dir_);
  SetManifestTail(dir_, before, "");
  auto reader = Store::OpenReadOnly(dir_);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader.value()->last_committed_epoch(), 1u);
  for (size_t pos = before; pos < before + kManifestFrameHeaderBytes; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(pos) + " bit " +
                   std::to_string(bit));
      std::string corrupt = full;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      SetManifestTail(dir_, before, corrupt.substr(before));
      EXPECT_EQ(reader.value()->Refresh().status().code(),
                StatusCode::kIOError);
      EXPECT_EQ(reader.value()->last_committed_epoch(), 1u);
      EXPECT_EQ(Store::Open(dir_).status().code(), StatusCode::kIOError);
      // Recovery never truncates what it cannot prove torn.
      EXPECT_EQ(ReadManifest(dir_), corrupt);
    }
  }
}

TEST_F(StoreTest, OldFormatManifestIsRefused) {
  // A manifest written before the append-only log: 8-byte frame headers
  // and the EEPMAN1 tag. Its first 12 bytes fail the frame-header check.
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  std::string tag;
  PutString(&tag, "EEPMAN1");
  const std::string old_manifest = JoinFrames({tag});
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(dir_ + "/MANIFEST", old_manifest, false)
                  .ok());
  EXPECT_EQ(Store::Open(dir_).status().code(), StatusCode::kIOError);
  EXPECT_EQ(Store::OpenReadOnly(dir_).status().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadManifest(dir_), old_manifest);
}

TEST_F(StoreTest, WorkloadFingerprintIsStableAndDiscriminating) {
  const auto workload = lodes::WorkloadSpec::PaperTabulations();
  const std::string fp =
      WorkloadFingerprint(workload, "smooth_laplace", 0.1, 2.0, 0.05);
  EXPECT_EQ(fp,
            WorkloadFingerprint(workload, "smooth_laplace", 0.1, 2.0, 0.05));
  EXPECT_NE(fp,
            WorkloadFingerprint(workload, "log_laplace", 0.1, 2.0, 0.05));
  EXPECT_NE(fp,
            WorkloadFingerprint(workload, "smooth_laplace", 0.1, 2.5, 0.05));
  // The marginal column lists are embedded readably.
  EXPECT_NE(fp.find("mech=smooth_laplace"), std::string::npos);
  EXPECT_NE(fp.find("eps=2"), std::string::npos);
}

}  // namespace
}  // namespace eep::store
