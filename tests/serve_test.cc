// The serving layer, single-threaded halves of the contract: ServedTable
// index correctness (lookup and top-k against brute force), Snapshot
// loading, read-only store semantics (OpenReadOnly/Refresh), server
// open/refresh/swap, the fingerprint gate, and the release -> store ->
// serve end-to-end path. The concurrent halves live in
// serve_stress_test.cc / serve_failpoint_test.cc / serve_property_test.cc.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "common/failpoint.h"
#include "common/random.h"
#include "lodes/generator.h"
#include "release/pipeline.h"
#include "serve/snapshot.h"
#include "store/store.h"

namespace eep::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_serve_test";
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

store::TableData MakeTable(const std::string& name, int rows, int salt = 0) {
  store::TableData table;
  table.name = name;
  table.header = {"place", "sector", "count"};
  for (int r = 0; r < rows; ++r) {
    table.rows.push_back({"place-" + std::to_string((r + salt) % 7),
                          "s" + std::to_string(r % 3),
                          std::to_string((r * 37 + salt * 11) % 100)});
  }
  return table;
}

// Labels whose byte order differs from any first-seen order: "M" sorts
// after "F", "9" after "10", "" before everything, "\xff" after every
// ASCII label, and prefix pairs sort short-first.
const std::vector<std::string>& TrickyLabels() {
  static const std::vector<std::string> labels = {
      "M", "F", "9", "10", "", "\xff", "a", "ab", "abc", "place-2",
      "place-10", std::string("\0x", 2)};
  return labels;
}

// A seeded random table with `attrs` attribute columns: small per-column
// label pools (so tuples repeat), integer counts (so counts tie) and %.4f
// counts, some negative.
store::TableData RandomTable(uint64_t seed, size_t attrs) {
  Rng rng(seed);
  store::TableData table;
  table.name = "random-" + std::to_string(seed);
  const std::vector<std::string>& tricky = TrickyLabels();
  std::vector<std::vector<std::string>> pools(attrs);
  for (size_t c = 0; c < attrs; ++c) {
    table.header.push_back("c" + std::to_string(c));
    const int64_t pool_size = rng.UniformInt(1, 6);
    for (int64_t i = 0; i < pool_size; ++i) {
      const int64_t pick =
          rng.UniformInt(0, static_cast<int64_t>(tricky.size()) - 1);
      pools[c].push_back(rng.Bernoulli(0.6)
                             ? tricky[static_cast<size_t>(pick)]
                             : "L" + std::to_string(rng.UniformInt(0, 99)));
    }
  }
  table.header.push_back("count");
  const int64_t rows = rng.UniformInt(0, 80);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < attrs; ++c) {
      const auto& pool = pools[c];
      row.push_back(pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
    }
    if (rng.Bernoulli(0.5)) {
      row.push_back(std::to_string(rng.UniformInt(-2, 6)));
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", rng.Uniform(-5.0, 5.0));
      row.push_back(buf);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::vector<std::string> Attrs(const std::vector<std::string>& row) {
  return std::vector<std::string>(row.begin(), row.end() - 1);
}

// Every row's key plus misses built from each: an unknown label, a label
// extended past a stored one, and the next row's label swapped in (a known
// label, maybe an unstored tuple).
std::vector<std::vector<std::string>> ProbeKeys(const store::TableData& data) {
  const auto& rows = data.rows;
  std::vector<std::vector<std::string>> keys;
  for (size_t r = 0; r < rows.size(); ++r) {
    keys.push_back(Attrs(rows[r]));
    for (size_t c = 0; c + 1 < rows[r].size(); ++c) {
      for (const std::string& label :
           {std::string("no-such-label"), rows[r][c] + "\x01",
            rows[r][c] + "0", rows[(r + 1) % rows.size()][c]}) {
        std::vector<std::string> key = Attrs(rows[r]);
        key[c] = label;
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

// Checks every answer `table` serves for `data` against a brute-force scan
// of its stored rows: each probe key's lookup (first stored row wins on a
// duplicated tuple; whatever the scan does not find must be NotFound), the
// served row order, and top-k at k in {0, 1, n, n+5}.
void ExpectAnswersMatchBruteForce(const ServedTable& table,
                                  const store::TableData& data) {
  SCOPED_TRACE(data.name);
  const auto& rows = data.rows;
  ASSERT_EQ(table.num_rows(), rows.size());

  for (const std::vector<std::string>& key : ProbeKeys(data)) {
    const auto first = std::find_if(
        rows.begin(), rows.end(),
        [&](const std::vector<std::string>& r) { return Attrs(r) == key; });
    auto got = table.Lookup(key);
    if (first == rows.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), first->back());
    std::map<std::string, std::string> cell;
    for (size_t c = 0; c < key.size(); ++c) cell[data.header[c]] = key[c];
    EXPECT_EQ(table.LookupCell(cell).value(), first->back());
  }

  // Served order: the stored rows stably sorted by attribute tuple.
  std::vector<std::vector<std::string>> by_tuple = rows;
  std::stable_sort(by_tuple.begin(), by_tuple.end(),
                   [](const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
                     return Attrs(a) < Attrs(b);
                   });
  EXPECT_EQ(table.Rows(), by_tuple);

  // Ranking: numeric count descending, ties by tuple ascending, equal
  // tuples in stored order.
  std::vector<std::vector<std::string>> ranked = by_tuple;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
                     return std::strtod(a.back().c_str(), nullptr) >
                            std::strtod(b.back().c_str(), nullptr);
                   });
  for (size_t k : {size_t{0}, size_t{1}, rows.size(), rows.size() + 5}) {
    const std::vector<RankedCell> top = table.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, rows.size())) << "k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].attrs, Attrs(ranked[i])) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].count, ranked[i].back()) << "k=" << k << " i=" << i;
    }
  }
}

void ExpectMatchesBruteForce(const store::TableData& data) {
  auto built = ServedTable::Build(data);
  ASSERT_TRUE(built.ok()) << data.name << ": " << built.status().ToString();
  ExpectAnswersMatchBruteForce(built.value(), data);
}

// Each attribute column's distinct labels in byte order (a served column's
// dictionary).
std::vector<std::vector<std::string>> Dictionaries(
    const store::TableData& data) {
  std::vector<std::vector<std::string>> dicts(data.header.size() - 1);
  for (size_t c = 0; c < dicts.size(); ++c) {
    for (const auto& row : data.rows) dicts[c].push_back(row[c]);
    std::sort(dicts[c].begin(), dicts[c].end());
    dicts[c].erase(std::unique(dicts[c].begin(), dicts[c].end()),
                   dicts[c].end());
  }
  return dicts;
}

// Probes whose every label is in its column's dictionary: each stored
// tuple, and each stored tuple with one column's label moved to its
// dictionary neighbour on either side. In packed-key order these sit just
// before and after every stored key, so they include the keys next to the
// first and last key of every run of keys sharing their top bits; moving
// a leading column's label lands in key ranges that may hold no row.
std::vector<std::vector<std::string>> NeighbourProbes(
    const store::TableData& data) {
  const std::vector<std::vector<std::string>> dicts = Dictionaries(data);
  std::vector<std::vector<std::string>> probes;
  for (const auto& row : data.rows) {
    probes.push_back(Attrs(row));
    for (size_t c = 0; c < dicts.size(); ++c) {
      const size_t at = static_cast<size_t>(
          std::lower_bound(dicts[c].begin(), dicts[c].end(), row[c]) -
          dicts[c].begin());
      // at - 1 wraps past the end when `at` is the first label.
      for (const size_t neighbour : {at - 1, at + 1}) {
        if (neighbour >= dicts[c].size()) continue;
        std::vector<std::string> probe = Attrs(row);
        probe[c] = dicts[c][neighbour];
        probes.push_back(std::move(probe));
      }
    }
  }
  return probes;
}

// Every probe answers like a map of the stored rows in which the first
// stored row of a repeated tuple wins, through both Lookup and LookupCell;
// an absent tuple is NotFound with the message naming it.
void ExpectProbesMatchTupleMap(
    const ServedTable& table, const store::TableData& data,
    const std::vector<std::vector<std::string>>& probes) {
  SCOPED_TRACE(data.name);
  std::map<std::vector<std::string>, std::string> first;
  for (const auto& row : data.rows) first.emplace(Attrs(row), row.back());
  size_t hits = 0;
  for (const std::vector<std::string>& key : probes) {
    std::map<std::string, std::string> cell;
    for (size_t c = 0; c < key.size(); ++c) cell[data.header[c]] = key[c];
    const auto want = first.find(key);
    const Result<std::string> got = table.Lookup(key);
    const Result<std::string> got_cell = table.LookupCell(cell);
    if (want == first.end()) {
      std::string label_list;
      for (size_t c = 0; c < key.size(); ++c) {
        label_list += (c > 0 ? "," : "") + key[c];
      }
      const std::string message =
          "table '" + data.name + "' has no cell [" + label_list + "]";
      for (const Result<std::string>* miss : {&got, &got_cell}) {
        EXPECT_EQ(miss->status().code(), StatusCode::kNotFound) << message;
        EXPECT_EQ(miss->status().message(), message);
      }
      continue;
    }
    ++hits;
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got_cell.ok()) << got_cell.status().ToString();
    EXPECT_EQ(got.value(), want->second);
    EXPECT_EQ(got_cell.value(), want->second);
  }
  EXPECT_GE(hits, first.size());
}

// Every tuple of the columns' dictionaries' cross product, which covers
// every absent tuple whose labels all exist.
std::vector<std::vector<std::string>> CrossProduct(
    const store::TableData& data) {
  std::vector<std::vector<std::string>> probes = {{}};
  for (const std::vector<std::string>& dict : Dictionaries(data)) {
    std::vector<std::vector<std::string>> longer;
    for (const auto& prefix : probes) {
      for (const std::string& label : dict) {
        longer.push_back(prefix);
        longer.back().push_back(label);
      }
    }
    probes = std::move(longer);
  }
  return probes;
}

// Eight attribute columns of `labels` labels each: 256 labels fill the
// 64-bit key exactly.
store::TableData WideTable(int labels) {
  store::TableData wide;
  wide.name = "wide-" + std::to_string(labels);
  for (int c = 0; c < 8; ++c) wide.header.push_back("c" + std::to_string(c));
  wide.header.push_back("count");
  for (int r = 0; r < labels; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < 8; ++c) {
      row.push_back("v" + std::to_string((r * (c + 1)) % labels));
    }
    row.push_back(std::to_string(r % 17));
    wide.rows.push_back(std::move(row));
  }
  return wide;
}

// A table in which one first-column label holds most rows: rows r % 8 != 0
// share place "big" and sector "hot" and differ only in `id`, so their
// keys agree on every bit above the id field. With the rows' 13 id bits
// below 11 place bits and 11 sector bits, thousands of keys share their
// top 13 bits.
store::TableData SkewedTable() {
  store::TableData data;
  data.name = "skewed";
  data.header = {"place", "sector", "id", "count"};
  char id[16];
  char label[16];
  for (int r = 0; r < 8192; ++r) {
    std::snprintf(id, sizeof(id), "id-%05d", r);
    std::snprintf(label, sizeof(label), "%05d", r);
    const bool big = r % 8 != 0;
    data.rows.push_back({big ? "big" : std::string("p") + label,
                         big ? "hot" : std::string("s") + label, id,
                         std::to_string(r % 97)});
  }
  return data;
}

// Counts that tie numerically under different texts, stored out of tuple
// order: ranking must bucket them by number (ties by tuple), and every
// row must still answer its own text.
store::TableData TiedCountsTable() {
  store::TableData data;
  data.name = "tied";
  data.header = {"place", "count"};
  data.rows = {{"g", "0"},       {"c", "2.0000"}, {"e", "-0.0000"},
               {"a", "2.0000"},  {"h", "2"},      {"b", "2"},
               {"f", "0.0000"},  {"d", "0"}};
  return data;
}

TEST_F(ServeTest, LookupMatchesLinearScanOnEveryRow) {
  const store::TableData data = MakeTable("t", 50, 3);
  ExpectMatchesBruteForce(data);
  auto table = ServedTable::Build(data);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().Lookup({"no-such-place", "s0"}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table.value().Lookup({"only-one-column"}).status().code(),
            StatusCode::kInvalidArgument);

  // Seeded random tables, 1 to 8 attribute columns.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    ExpectMatchesBruteForce(RandomTable(seed, 1 + seed % 8));
  }

  // Code widths: 8 columns of 256 labels fill the 64-bit key exactly;
  // 257 labels need 72 bits and the build refuses.
  ExpectMatchesBruteForce(WideTable(256));
  EXPECT_EQ(ServedTable::Build(WideTable(257)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, IndexEdgeCasesAnswerLikeATupleMap) {
  // One first-column label holds 7/8 of 8192 rows.
  const store::TableData skewed = SkewedTable();
  auto skewed_table = ServedTable::Build(skewed);
  ASSERT_TRUE(skewed_table.ok()) << skewed_table.status().ToString();
  std::vector<std::vector<std::string>> probes = NeighbourProbes(skewed);
  // Absent tuples of existing labels away from every stored key: a small
  // place with the big rows' sector, and the big place with a small
  // row's sector.
  for (const auto& row : skewed.rows) {
    if (row[0] == "big") continue;
    probes.push_back({row[0], "hot", row[2]});
    probes.push_back({"big", row[1], row[2]});
  }
  ExpectProbesMatchTupleMap(skewed_table.value(), skewed, probes);

  // The 64-bit key: the top bits are the first column's whole field.
  const store::TableData wide = WideTable(256);
  auto wide_table = ServedTable::Build(wide);
  ASSERT_TRUE(wide_table.ok()) << wide_table.status().ToString();
  ExpectProbesMatchTupleMap(wide_table.value(), wide, NeighbourProbes(wide));

  // 0, 1 and 2 rows; a repeated tuple; a one-label (0-bit) column; and
  // column names whose order is not header order, so a map-form lookup
  // walks the columns in another order than the key packs them.
  std::vector<store::TableData> tiny(6);
  for (store::TableData& data : tiny) {
    data.header = {"place", "sector", "count"};
  }
  tiny[0].name = "rows-0";
  tiny[1].name = "rows-1";
  tiny[1].rows = {{"a", "x", "5"}};
  tiny[2].name = "rows-2";
  tiny[2].rows = {{"b", "y", "2"}, {"a", "x", "1"}};
  tiny[3].name = "rows-2-repeated";
  tiny[3].rows = {{"a", "x", "1"}, {"a", "x", "2"}};
  tiny[4].name = "rows-2-one-place";
  tiny[4].rows = {{"a", "y", "2"}, {"a", "x", "1"}};
  tiny[5].name = "names-out-of-header-order";
  tiny[5].header = {"sector", "place", "age", "count"};
  for (int r = 0; r < 40; ++r) {
    tiny[5].rows.push_back({"s" + std::to_string(r % 5),
                            "p" + std::to_string(r % 3),
                            "a" + std::to_string(r % 4),
                            std::to_string(r)});
  }
  for (const store::TableData& data : tiny) {
    auto table = ServedTable::Build(data);
    ASSERT_TRUE(table.ok()) << data.name << ": " << table.status().ToString();
    ExpectAnswersMatchBruteForce(table.value(), data);
    probes = CrossProduct(data);
    probes.push_back(std::vector<std::string>(data.header.size() - 1, "a"));
    ExpectProbesMatchTupleMap(table.value(), data, probes);
  }

  // Seeded random tables: every tuple of the dictionaries where that is
  // small, neighbour probes otherwise.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const store::TableData data = RandomTable(seed, 1 + seed % 8);
    auto table = ServedTable::Build(data);
    ASSERT_TRUE(table.ok()) << data.name << ": " << table.status().ToString();
    size_t tuples = 1;
    for (const auto& dict : Dictionaries(data)) tuples *= dict.size();
    ExpectProbesMatchTupleMap(
        table.value(), data,
        tuples <= 20000 ? CrossProduct(data) : NeighbourProbes(data));
  }
}

TEST_F(ServeTest, LookupCellRequiresExactlyTheAttributeColumns) {
  auto table = ServedTable::Build(MakeTable("t", 10));
  ASSERT_TRUE(table.ok());
  auto got =
      table.value().LookupCell({{"place", "place-1"}, {"sector", "s1"}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(table.value()
                .LookupCell({{"place", "place-1"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.value()
                .LookupCell({{"place", "place-1"}, {"bogus", "s1"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The right number of entries with one misnamed column, sorting before,
  // between or after the real names: the message names the first
  // attribute column, in header order, that the request lacks.
  const std::vector<std::pair<std::map<std::string, std::string>,
                              std::string>>
      misnamed = {
          {{{"place", "place-1"}, {"bogus", "s1"}},
           "no value for attribute column 'sector' of table 't'"},
          {{{"aaa", "place-1"}, {"sector", "s1"}},
           "no value for attribute column 'place' of table 't'"},
          {{{"place", "place-1"}, {"zzz", "s1"}},
           "no value for attribute column 'sector' of table 't'"},
          {{{"plaza", "place-1"}, {"sector", "s1"}},
           "no value for attribute column 'place' of table 't'"},
          {{{"place", "place-1"}, {"sector", "s1"}, {"zone", "z"}},
           "expected exactly one value per attribute column of table 't'"},
      };
  for (const auto& [values, message] : misnamed) {
    const Status status = table.value().LookupCell(values).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_EQ(status.message(), message);
  }

  // A label absent from its column's dictionary, in either column.
  for (const auto& [place, sector] :
       std::vector<std::pair<std::string, std::string>>{
           {"nowhere", "s1"}, {"place-1", "s9"}, {"place-1", ""}}) {
    const std::string message =
        "table 't' has no cell [" + place + "," + sector + "]";
    for (const Status& status :
         {table.value().LookupCell({{"place", place}, {"sector", sector}})
              .status(),
          table.value().Lookup({place, sector}).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << message;
      EXPECT_EQ(status.message(), message);
    }
  }
}

TEST_F(ServeTest, NumericTiesUnderDifferentTextsRankByTuple) {
  const store::TableData data = TiedCountsTable();
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp", {data}).ok());
  auto loaded = Snapshot::Load(*writer.value(), 1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto built = ServedTable::Build(data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "2.0000"}, {"b", "2"},       {"c", "2.0000"}, {"h", "2"},
      {"d", "0"},      {"e", "-0.0000"}, {"f", "0.0000"}, {"g", "0"}};
  const ServedTable& built_table = built.value();
  for (const ServedTable* table :
       {&loaded.value().tables()[0], &built_table}) {
    const std::vector<RankedCell> top = table->TopK(want.size());
    ASSERT_EQ(top.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(top[i].attrs, std::vector<std::string>{want[i].first}) << i;
      EXPECT_EQ(top[i].count, want[i].second) << i;
      EXPECT_EQ(table->Lookup({want[i].first}).value(), want[i].second);
    }
    ExpectAnswersMatchBruteForce(*table, data);
  }
}

TEST_F(ServeTest, StoreLoadedIndexAnswersLikeBuild) {
  // The store path (EncodeTable at commit, ReadCoded at load) and
  // Build(TableData) must build the same index: same rows, same answer or
  // miss for every probe, same top-k.
  std::vector<store::TableData> tables;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    tables.push_back(RandomTable(seed, 1 + seed % 8));
  }
  tables.push_back(TiedCountsTable());
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp", tables).ok());
  auto snapshot = Snapshot::Load(*writer.value(), 1);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot.value().tables().size(), tables.size());

  for (size_t t = 0; t < tables.size(); ++t) {
    const store::TableData& data = tables[t];
    SCOPED_TRACE(data.name);
    const ServedTable& loaded = snapshot.value().tables()[t];
    auto built = ServedTable::Build(data);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(loaded.name(), data.name);
    EXPECT_EQ(loaded.header(), built.value().header());
    EXPECT_EQ(loaded.Rows(), built.value().Rows());
    for (const std::vector<std::string>& key : ProbeKeys(data)) {
      auto want = built.value().Lookup(key);
      auto got = loaded.Lookup(key);
      ASSERT_EQ(got.status().code(), want.status().code());
      if (want.ok()) {
        EXPECT_EQ(got.value(), want.value());
      }
    }
    const size_t n = data.rows.size();
    for (size_t k : {size_t{0}, size_t{1}, n, n + 5}) {
      EXPECT_EQ(loaded.TopK(k), built.value().TopK(k)) << "k=" << k;
    }
    ExpectAnswersMatchBruteForce(loaded, data);
  }
}

TEST_F(ServeTest, TopKIsNumericDescendingWithDeterministicTies) {
  store::TableData data;
  data.name = "ranked";
  data.header = {"place", "count"};
  // "9" must rank above "10" would be the lexicographic bug; counts
  // repeat so ties exercise the attribute-tuple tiebreak.
  data.rows = {{"a", "9"},  {"b", "10"}, {"c", "110"},
               {"d", "10"}, {"e", "2"},  {"f", "110"}};
  auto table = ServedTable::Build(std::move(data));
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  const std::vector<RankedCell> top = table.value().TopK(4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].attrs, std::vector<std::string>{"c"});
  EXPECT_EQ(top[1].attrs, std::vector<std::string>{"f"});
  EXPECT_EQ(top[2].attrs, std::vector<std::string>{"b"});
  EXPECT_EQ(top[3].attrs, std::vector<std::string>{"d"});
  EXPECT_EQ(top[2].count, "10");
  // k past the end returns everything.
  EXPECT_EQ(table.value().TopK(100).size(), 6u);
}

TEST_F(ServeTest, BuildRejectsMalformedTables) {
  store::TableData no_attrs;
  no_attrs.name = "bad";
  no_attrs.header = {"count"};
  EXPECT_EQ(ServedTable::Build(no_attrs).status().code(),
            StatusCode::kInvalidArgument);

  store::TableData ragged = MakeTable("ragged", 5);
  ragged.rows[3].pop_back();
  EXPECT_EQ(ServedTable::Build(ragged).status().code(),
            StatusCode::kInvalidArgument);

  // A value cell must be wholly one finite number: an unparseable cell
  // would rank as 0, and NaN would break the rank order.
  for (const char* cell :
       {"", "abc", "12x", "1 ", " 1", "nan", "NaN", "inf", "-inf", "1e999"}) {
    store::TableData bad_value = MakeTable("bad-value", 5);
    bad_value.rows[2].back() = cell;
    EXPECT_EQ(ServedTable::Build(bad_value).status().code(),
              StatusCode::kInvalidArgument)
        << "value cell '" << cell << "'";
  }
}

TEST_F(ServeTest, OpenReadOnlyFollowsAWriterWithoutTouchingTheDirectory) {
  // Before the directory even exists: an empty store, not an error.
  auto reader = store::Store::OpenReadOnly(dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->last_committed_epoch(), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir_));
  EXPECT_EQ(reader.value()->CommitEpoch("fp", {MakeTable("t", 3)})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {MakeTable("t", 8)}).ok());

  // The reader instance picks the commit up via Refresh, and a second
  // Refresh with nothing new takes the size-probe fast path (same answer).
  auto refreshed = reader.value()->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.value(), 1u);
  EXPECT_EQ(reader.value()->Refresh().value(), 1u);
  auto read = reader.value()->ReadTable(1, "t");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == MakeTable("t", 8));

  ASSERT_TRUE(writer.value()->CommitEpoch("fp-2", {MakeTable("t", 9)}).ok());
  EXPECT_EQ(reader.value()->Refresh().value(), 2u);
  EXPECT_EQ(reader.value()->Epochs().size(), 2u);
}

TEST_F(ServeTest, ServerServesEmptyStoreThenSwapsInFirstEpoch) {
  ServerOptions options;
  options.poll_interval_ms = 0;  // manual RefreshNow only
  auto server = Server::Open(dir_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server.value()->serving_epoch(), 0u);
  EXPECT_EQ(server.value()->snapshot()->Find("t").status().code(),
            StatusCode::kNotFound);

  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      writer.value()->CommitEpoch("fp-1", {MakeTable("t", 12)}).ok());

  // A snapshot pinned BEFORE the refresh must not move.
  std::shared_ptr<const Snapshot> pinned = server.value()->snapshot();
  ASSERT_TRUE(server.value()->RefreshNow().ok());
  EXPECT_EQ(server.value()->serving_epoch(), 1u);
  EXPECT_EQ(pinned->epoch(), 0u);

  std::shared_ptr<const Snapshot> current = server.value()->snapshot();
  auto served = current->Find("t");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto count =
      served.value()->LookupCell({{"place", "place-1"}, {"sector", "s1"}});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  const Server::Stats stats = server.value()->stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST_F(ServeTest, BackgroundRefreshObservesCommitWithinTheStalenessBound) {
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {MakeTable("t", 5)}).ok());

  ServerOptions options;
  options.poll_interval_ms = 2;
  auto server = Server::Open(dir_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server.value()->serving_epoch(), 1u);

  ASSERT_TRUE(
      writer.value()->CommitEpoch("fp-2", {MakeTable("t", 6, 1)}).ok());
  EXPECT_TRUE(server.value()->WaitForEpoch(2, /*timeout_ms=*/10000));
  EXPECT_EQ(server.value()->serving_epoch(), 2u);
  EXPECT_GE(server.value()->stats().polls, 1u);
}

TEST_F(ServeTest, FingerprintGateRefusesTheWrongRelease) {
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      writer.value()->CommitEpoch("fp-right", {MakeTable("t", 4)}).ok());

  ServerOptions options;
  options.poll_interval_ms = 0;
  options.expected_fingerprint = "fp-wrong";
  EXPECT_EQ(Server::Open(dir_, options).status().code(),
            StatusCode::kFailedPrecondition);

  // Opened on the empty store first, the gate instead rejects the swap:
  // the empty snapshot keeps serving and the failure is counted.
  std::filesystem::remove_all(dir_);
  auto gated = Server::Open(dir_, options);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      writer.value()->CommitEpoch("fp-right", {MakeTable("t", 4)}).ok());
  EXPECT_EQ(gated.value()->RefreshNow().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(gated.value()->serving_epoch(), 0u);
  EXPECT_EQ(gated.value()->stats().failures, 1u);
}

TEST_F(ServeTest, ReleaseToServeEndToEnd) {
  lodes::GeneratorConfig gen;
  gen.seed = 17;
  gen.target_jobs = 6000;
  gen.num_places = 10;
  auto data = lodes::SyntheticLodesGenerator(gen).Generate();
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.epsilon = 2.0;
  config.delta = 0.05;

  // Server opens before anything is released, gated on the fingerprint
  // the pipeline is ABOUT to commit.
  ServerOptions options;
  options.poll_interval_ms = 0;
  options.expected_fingerprint = ExpectedFingerprint(config);
  auto server = Server::Open(dir_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  config.persist_to = writer.value().get();
  Rng rng(99);
  release::WorkloadReleaseStats stats;
  auto released = release::RunReleaseWorkload(data.value(), config, nullptr, rng,
                                              nullptr, &stats);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(stats.persisted_fingerprint, options.expected_fingerprint);
  EXPECT_EQ(stats.persisted_epoch, 1u);

  ASSERT_TRUE(server.value()->RefreshNow().ok());
  ASSERT_EQ(server.value()->serving_epoch(), 1u);
  std::shared_ptr<const Snapshot> snap = server.value()->snapshot();
  EXPECT_EQ(snap->fingerprint(), stats.persisted_fingerprint);
  ASSERT_EQ(snap->tables().size(), released.value().size());

  // Every released cell answers through the serving index with the
  // verbatim released count; top-k re-derives from the released rows.
  for (size_t i = 0; i < released.value().size(); ++i) {
    const release::ReleasedTable& want = released.value()[i];
    const ServedTable& served = snap->tables()[i];
    EXPECT_EQ(served.header(), want.header);
    ASSERT_EQ(served.num_rows(), want.rows.size());
    for (const auto& row : want.rows) {
      std::vector<std::string> key(row.begin(), row.end() - 1);
      auto got = served.Lookup(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), row.back());
    }
    // Brute-force top-5: stable sort by numeric count desc, key asc.
    std::vector<std::vector<std::string>> sorted = want.rows;
    std::sort(sorted.begin(), sorted.end(),
              [](const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
                const double ca = std::stod(a.back());
                const double cb = std::stod(b.back());
                if (ca != cb) return ca > cb;
                return std::vector<std::string>(a.begin(), a.end() - 1) <
                       std::vector<std::string>(b.begin(), b.end() - 1);
              });
    const auto top = served.TopK(5);
    ASSERT_EQ(top.size(), std::min<size_t>(5, sorted.size()));
    for (size_t r = 0; r < top.size(); ++r) {
      EXPECT_EQ(top[r].count, sorted[r].back()) << "table " << i;
      EXPECT_EQ(top[r].attrs,
                std::vector<std::string>(sorted[r].begin(),
                                         sorted[r].end() - 1))
          << "table " << i;
    }
  }
}

}  // namespace
}  // namespace eep::serve
