// The proof half of the durability contract (docs/ARCHITECTURE.md):
//
//  * Crash matrix — for EVERY registered failpoint site and EVERY hit
//    count it sees during a commit, inject an error / short write /
//    simulated crash mid-commit, "reboot" (disarm + reopen) and assert
//    the recovery invariant: the store opens cleanly, serves the last
//    committed epoch, and every surviving table is bit-identical.
//  * Corruption sweep — flip bits across every byte region of every
//    on-disk file and assert each flip is DETECTED as Status::IOError,
//    never served as silently wrong data.
//  * End-to-end — RunReleaseWorkload's persist step commits exactly the
//    tables it returns, and a persist failure fails the release while the
//    previous epoch keeps serving.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/failpoint.h"
#include "lodes/generator.h"
#include "release/pipeline.h"
#include "store/store.h"

namespace eep::store {
namespace {

class StoreCrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_store_crash_test";
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  void FreshDir() {
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

// Small but non-trivial: two tables, enough rows to exercise several
// Append calls per segment.
std::vector<TableData> EpochTables(int salt) {
  std::vector<TableData> tables;
  for (int t = 0; t < 2; ++t) {
    TableData table;
    table.name = "table" + std::to_string(t);
    table.header = {"place", "count"};
    for (int r = 0; r < 20 + t; ++r) {
      table.rows.push_back({"p" + std::to_string((r * 7 + salt) % 11),
                            std::to_string(r + salt * 1000)});
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

void ExpectEpochEquals(Store* store, uint64_t epoch,
                       const std::vector<TableData>& want,
                       const std::string& context) {
  auto read = store->ReadEpoch(epoch);
  ASSERT_TRUE(read.ok()) << context << ": " << read.status().ToString();
  ASSERT_EQ(read.value().size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(read.value()[i] == want[i])
        << context << ": table " << i << " not bit-identical after recovery";
  }
}

// Records how often each failpoint site is consulted by one clean commit —
// the axes of the matrix. Sites a commit never consults (pure read sites)
// drop out naturally.
std::map<std::string, int> RecordCommitHitCounts(const std::string& dir) {
  auto& registry = FailpointRegistry::Instance();
  std::filesystem::remove_all(dir);
  auto store = Store::Open(dir);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->CommitEpoch("fp-1", EpochTables(1)).ok());
  registry.EnableCounting(true);
  EXPECT_TRUE(store.value()->CommitEpoch("fp-2", EpochTables(2)).ok());
  // Read the counters BEFORE turning counting off — EnableCounting resets
  // every counter in both directions.
  std::map<std::string, int> hits;
  for (const std::string& name : registry.Names()) {
    if (registry.HitCount(name) > 0) hits[name] = registry.HitCount(name);
  }
  registry.EnableCounting(false);
  registry.DisarmAll();
  std::filesystem::remove_all(dir);
  return hits;
}

// True when MANIFEST is whole frames only — [u32 len][u32 crc][u32 header
// crc][payload] — with no torn record after the last one.
bool ManifestHoldsOnlyCompleteRecords(const std::string& dir) {
  const std::string manifest =
      Env::Default()->ReadFileToString(dir + "/MANIFEST").value();
  size_t pos = 0;
  while (manifest.size() - pos >= 12) {
    uint64_t len = 0;
    for (int b = 0; b < 4; ++b) {
      const auto byte = static_cast<unsigned char>(manifest[pos + b]);
      len |= uint64_t{byte} << (8 * b);
    }
    pos += 12 + len;
    if (pos > manifest.size()) return false;
  }
  return pos == manifest.size();
}

TEST_F(StoreCrashMatrixTest, EveryFailpointTimesEveryHitCountRecovers) {
  auto& registry = FailpointRegistry::Instance();
  const std::map<std::string, int> commit_hits =
      RecordCommitHitCounts(dir_);
  // The protocol has real write/sync/append stages: file/open-write,
  // file/append, file/sync, file/close, file/sync-dir, store/segment-write,
  // store/segment-sync, store/wal-append and store/wal-sync. A shorter map
  // would mean the recording pass silently broke.
  ASSERT_EQ(commit_hits.size(), 9u);
  ASSERT_TRUE(commit_hits.count("store/wal-sync"));
  ASSERT_TRUE(commit_hits.count("file/sync-dir"));

  const std::vector<TableData> epoch1 = EpochTables(1);
  const std::vector<TableData> epoch2 = EpochTables(2);
  int cases = 0;
  for (const auto& [site, hits] : commit_hits) {
    for (int k = 1; k <= hits; ++k) {
      for (FailpointFault fault :
           {FailpointFault::kError, FailpointFault::kCrash}) {
        const std::string context =
            site + " hit " + std::to_string(k) + " fault " +
            std::to_string(static_cast<int>(fault));
        ++cases;
        FreshDir();
        auto store = Store::Open(dir_);
        ASSERT_TRUE(store.ok()) << context;
        ASSERT_TRUE(store.value()->CommitEpoch("fp-1", epoch1).ok())
            << context;

        FailpointSpec spec;
        spec.fault = fault;
        spec.hit = k;
        spec.message = "EIO";
        registry.Arm(site, spec);
        const Status commit =
            store.value()->CommitEpoch("fp-2", epoch2).status();
        registry.DisarmAll();  // the "reboot"

        auto reopened = Store::Open(dir_);
        ASSERT_TRUE(reopened.ok())
            << context << ": recovery failed: "
            << reopened.status().ToString();
        const uint64_t last = reopened.value()->last_committed_epoch();
        if (commit.ok()) {
          // Only possible when the fault landed after the commit point.
          EXPECT_EQ(last, 2u) << context;
        } else {
          EXPECT_TRUE(last == 1u || last == 2u) << context;
        }
        ExpectEpochEquals(reopened.value().get(), 1, epoch1, context);
        if (last == 2) {
          ExpectEpochEquals(reopened.value().get(), 2, epoch2, context);
        }
        // Recovery left no torn tail behind.
        EXPECT_TRUE(ManifestHoldsOnlyCompleteRecords(dir_)) << context;
        // And the recovered store can commit the epoch again.
        auto retry = reopened.value()->CommitEpoch("fp-retry", epoch2);
        ASSERT_TRUE(retry.ok()) << context << ": "
                                << retry.status().ToString();
        ExpectEpochEquals(reopened.value().get(), retry.value(), epoch2,
                          context + " (retry)");
      }
    }
  }
  // ~2 faults x ~25 (site, k) pairs; a collapse here means the commit
  // path stopped consulting its failpoints.
  EXPECT_GE(cases, 40);
}

TEST_F(StoreCrashMatrixTest, ShortWritesAtEveryAppendRecover) {
  auto& registry = FailpointRegistry::Instance();
  const std::map<std::string, int> commit_hits =
      RecordCommitHitCounts(dir_);
  const int append_hits = commit_hits.at("file/append");
  ASSERT_GE(append_hits, 3);

  const std::vector<TableData> epoch1 = EpochTables(1);
  const std::vector<TableData> epoch2 = EpochTables(2);
  for (int k = 1; k <= append_hits; ++k) {
    for (size_t partial : {size_t{0}, size_t{1}, size_t{7}}) {
      const std::string context = "append hit " + std::to_string(k) +
                                  " partial " + std::to_string(partial);
      FreshDir();
      auto store = Store::Open(dir_);
      ASSERT_TRUE(store.ok()) << context;
      ASSERT_TRUE(store.value()->CommitEpoch("fp-1", epoch1).ok())
          << context;
      FailpointSpec spec;
      spec.fault = FailpointFault::kShortWrite;
      spec.hit = k;
      spec.partial_bytes = partial;
      registry.Arm("file/append", spec);
      EXPECT_FALSE(store.value()->CommitEpoch("fp-2", epoch2).ok())
          << context;
      registry.DisarmAll();

      auto reopened = Store::Open(dir_);
      ASSERT_TRUE(reopened.ok())
          << context << ": " << reopened.status().ToString();
      EXPECT_EQ(reopened.value()->last_committed_epoch(), 1u) << context;
      ExpectEpochEquals(reopened.value().get(), 1, epoch1, context);
      EXPECT_TRUE(ManifestHoldsOnlyCompleteRecords(dir_)) << context;
    }
  }
}

TEST_F(StoreCrashMatrixTest, EveryFlippedBitIsDetectedAsIOError) {
  {
    auto store = Store::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp-1", EpochTables(1)).ok());
    ASSERT_TRUE(store.value()->CommitEpoch("fp-2", EpochTables(2)).ok());
  }
  const std::vector<std::vector<TableData>> committed = {EpochTables(1),
                                                         EpochTables(2)};
  auto files = Env::Default()->ListDir(dir_);
  ASSERT_TRUE(files.ok());
  ASSERT_GE(files.value().size(), 5u);  // MANIFEST + 2x2 segments

  int flips = 0;
  for (const std::string& file : files.value()) {
    const std::string path = dir_ + "/" + file;
    const std::string original =
        Env::Default()->ReadFileToString(path).value();
    // Every byte of the small manifest; a covering stride through the
    // segments (the whole-file CRC catches any position — the stride
    // bounds runtime, not coverage of the code paths).
    const size_t stride = file == "MANIFEST"
                              ? 1
                              : std::max<size_t>(1, original.size() / 64);
    for (size_t pos = 0; pos < original.size(); pos += stride) {
      ++flips;
      const std::string context =
          file + " byte " + std::to_string(pos);
      std::string corrupt = original;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
      ASSERT_TRUE(
          Env::Default()->WriteStringToFile(path, corrupt, false).ok());

      bool detected = false;
      auto store = Store::Open(dir_);
      if (!store.ok()) {
        EXPECT_EQ(store.status().code(), StatusCode::kIOError) << context;
        detected = true;
      } else {
        for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
          auto read = store.value()->ReadEpoch(epoch);
          if (!read.ok()) {
            EXPECT_EQ(read.status().code(), StatusCode::kIOError)
                << context;
            detected = true;
          } else {
            // Served data must be bit-identical — silent corruption is
            // the one unforgivable outcome.
            for (size_t t = 0; t < committed[epoch - 1].size(); ++t) {
              ASSERT_TRUE(read.value()[t] == committed[epoch - 1][t])
                  << context << ": silently wrong data served";
            }
          }
        }
      }
      EXPECT_TRUE(detected) << context << ": flip was not detected";
      ASSERT_TRUE(
          Env::Default()->WriteStringToFile(path, original, false).ok());
    }
  }
  EXPECT_GE(flips, 300);
}

// ---------------------------------------------------------------------------
// End-to-end: the pipeline's persist step.
// ---------------------------------------------------------------------------

lodes::LodesDataset MakeDataset(uint64_t seed) {
  lodes::GeneratorConfig config;
  config.seed = seed;
  config.target_jobs = 6000;
  config.num_places = 10;
  auto data = lodes::SyntheticLodesGenerator(config).Generate();
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

TEST_F(StoreCrashMatrixTest, PipelinePersistCommitsExactlyTheReleasedTables) {
  const lodes::LodesDataset data = MakeDataset(91);
  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;

  // Reference run without a store: persisting must not perturb the noise.
  Rng reference_rng(1234);
  auto reference =
      release::RunReleaseWorkload(data, config, nullptr, reference_rng);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  config.persist_to = store.value().get();
  Rng rng(1234);
  release::WorkloadReleaseStats stats;
  auto released = release::RunReleaseWorkload(data, config, nullptr, rng,
                                              nullptr, &stats);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(stats.persisted_epoch, 1u);
  // Whole-table equality, names included: a release without a store
  // carries exactly the tables (and table names) the store commits.
  EXPECT_EQ(released.value(), reference.value());

  // Reopen (fresh recovery) and read back: bit-identical to the released
  // tables, names included, under the workload's fingerprint.
  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto info = reopened.value()->CurrentEpoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value()->fingerprint,
            WorkloadFingerprint(config.workload,
                                eval::MechanismKindName(config.mechanism),
                                config.alpha, config.epsilon, config.delta));
  auto persisted = reopened.value()->ReadEpoch(1);
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(persisted.value(), released.value());
}

TEST_F(StoreCrashMatrixTest, PipelinePersistFailureKeepsPreviousEpoch) {
  const lodes::LodesDataset data = MakeDataset(92);
  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 0.05;

  auto store = Store::Open(dir_);
  ASSERT_TRUE(store.ok());
  config.persist_to = store.value().get();
  Rng rng(55);
  auto first = release::RunReleaseWorkload(data, config, nullptr, rng);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The accountant is charged before noise, so a persist failure forfeits
  // budget but must fail the release call and leave epoch 1 serving.
  auto accountant = privacy::PrivacyAccountant::Create(
      0.1, 1e6, 0.999, privacy::AdversaryModel::kWeak);
  ASSERT_TRUE(accountant.ok());
  FailpointSpec spec;
  spec.fault = FailpointFault::kError;
  spec.message = "ENOSPC";
  FailpointRegistry::Instance().Arm("store/wal-append", spec);
  auto failed = release::RunReleaseWorkload(data, config,
                                            &accountant.value(), rng);
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_GT(accountant.value().spent_epsilon(), 0.0);

  auto reopened = Store::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->last_committed_epoch(), 1u);
  auto read = reopened.value()->ReadEpoch(1);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), first.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(read.value()[i].rows, first.value()[i].rows) << i;
  }
}

}  // namespace
}  // namespace eep::store
