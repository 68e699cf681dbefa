// The Status-returning file layer (common/file.h), the CRC32C kernel it
// checksums with, and the failpoint registry that injects faults into it.
#include "common/file.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace eep {
namespace {

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_file_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 appendix B.4 check value.
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xE3069283u);
  // 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  // 32 bytes of 0xff.
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(std::string("")), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t prefix = Crc32cExtend(0, data.data(), split);
    const uint32_t whole =
        Crc32cExtend(prefix, data.data() + split, data.size() - split);
    EXPECT_EQ(whole, Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
    EXPECT_NE(Crc32cMask(crc), crc);
  }
}

// ---------------------------------------------------------------------------
// Env round trips + error surfacing
// ---------------------------------------------------------------------------

TEST_F(FileTest, WriteReadRoundTrip) {
  const std::string path = dir_ + "/data.bin";
  std::string payload("hello\0world\nwith\xff bytes", 23);
  payload += std::string(3000, 'x');
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, payload, true).ok());
  auto read = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), payload);
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), payload.size());
}

TEST_F(FileTest, MissingFileSurfacesPathAndErrno) {
  auto read = Env::Default()->ReadFileToString(dir_ + "/nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().ToString().find("/nope"), std::string::npos);
  EXPECT_NE(read.status().ToString().find("errno"), std::string::npos);
}

TEST_F(FileTest, ShortReadPastEofIsIOError) {
  const std::string path = dir_ + "/short.bin";
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, "abc", false).ok());
  auto file = Env::Default()->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string out;
  EXPECT_TRUE(file.value()->Read(0, 3, &out).ok());
  EXPECT_EQ(out, "abc");
  EXPECT_EQ(file.value()->Read(0, 4, &out).code(), StatusCode::kIOError);
  EXPECT_EQ(file.value()->Read(3, 1, &out).code(), StatusCode::kIOError);
}

TEST_F(FileTest, ListDirSortedRegularFilesOnly) {
  ASSERT_TRUE(Env::Default()->WriteStringToFile(dir_ + "/b", "1", false).ok());
  ASSERT_TRUE(Env::Default()->WriteStringToFile(dir_ + "/a", "2", false).ok());
  std::filesystem::create_directories(dir_ + "/subdir");
  auto names = Env::Default()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(FileTest, AppendableFileKeepsExistingBytes) {
  const std::string path = dir_ + "/log";
  auto created = Env::Default()->NewAppendableFile(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(created.value()->Append("one").ok());
  ASSERT_TRUE(created.value()->Close().ok());
  auto reopened = Env::Default()->NewAppendableFile(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value()->Append("two").ok());
  EXPECT_EQ(reopened.value()->bytes_written(), 3u);
  ASSERT_TRUE(reopened.value()->Sync().ok());
  ASSERT_TRUE(reopened.value()->Close().ok());
  EXPECT_EQ(Env::Default()->ReadFileToString(path).value(), "onetwo");
}

TEST_F(FileTest, TruncateFileCutsToLength) {
  const std::string path = dir_ + "/cut";
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(path, "whole|torn", false).ok());
  ASSERT_TRUE(Env::Default()->TruncateFile(path, 5).ok());
  EXPECT_EQ(Env::Default()->ReadFileToString(path).value(), "whole");
  EXPECT_EQ(Env::Default()->TruncateFile(dir_ + "/nope", 0).code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Failpoint registry semantics
// ---------------------------------------------------------------------------

TEST_F(FileTest, InventoryRegistersExpectedSites) {
  auto& registry = FailpointRegistry::Instance();
  for (const char* name :
       {"file/append", "file/sync", "file/truncate", "store/wal-append",
        "store/wal-sync", "store/segment-write"}) {
    EXPECT_TRUE(registry.IsRegistered(name)) << name;
    EXPECT_TRUE(registry.IsWriteSide(name)) << name;
  }
  // The manifest is only ever appended to: no rename site is registered.
  EXPECT_FALSE(registry.IsRegistered("file/rename"));
  EXPECT_FALSE(registry.IsRegistered("store/wal-rename"));
  EXPECT_TRUE(registry.IsRegistered("file/read"));
  EXPECT_FALSE(registry.IsWriteSide("file/read"));
  EXPECT_FALSE(registry.IsRegistered("store/no-such-site"));
}

TEST_F(FileTest, InjectedErrorFiresOnKthHitOnly) {
  auto& registry = FailpointRegistry::Instance();
  FailpointSpec spec;
  spec.fault = FailpointFault::kError;
  spec.hit = 2;
  spec.message = "ENOSPC";
  registry.Arm("file/append", spec);

  auto file = Env::Default()->NewWritableFile(dir_ + "/fp.bin");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->Append("first").ok());
  Status second = file.value()->Append("second");
  EXPECT_EQ(second.code(), StatusCode::kIOError);
  EXPECT_NE(second.ToString().find("ENOSPC"), std::string::npos);
  // Fired once; the site behaves normally afterwards.
  EXPECT_TRUE(file.value()->Append("third").ok());
  registry.DisarmAll();
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(Env::Default()->ReadFileToString(dir_ + "/fp.bin").value(),
            "firstthird");
}

TEST_F(FileTest, ShortWriteLeavesTornPrefixOnDisk) {
  auto& registry = FailpointRegistry::Instance();
  FailpointSpec spec;
  spec.fault = FailpointFault::kShortWrite;
  spec.partial_bytes = 4;
  registry.Arm("file/append", spec);

  auto file = Env::Default()->NewWritableFile(dir_ + "/torn.bin");
  ASSERT_TRUE(file.ok());
  Status torn = file.value()->Append("0123456789");
  EXPECT_EQ(torn.code(), StatusCode::kIOError);
  registry.DisarmAll();
  ASSERT_TRUE(file.value()->Close().ok());
  // Exactly the stated prefix reached the file — the torn tail recovery
  // must cope with.
  EXPECT_EQ(Env::Default()->ReadFileToString(dir_ + "/torn.bin").value(),
            "0123");
}

TEST_F(FileTest, SimulatedCrashStopsWritesButNotReads) {
  auto& registry = FailpointRegistry::Instance();
  const std::string path = dir_ + "/crash.bin";
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, "durable", true).ok());

  FailpointSpec spec;
  spec.fault = FailpointFault::kCrash;
  registry.Arm("file/sync", spec);
  auto file = Env::Default()->NewWritableFile(dir_ + "/next.bin");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file.value()->Sync().ok());
  EXPECT_TRUE(registry.InCrash());
  // Every later write-side operation fails until the "reboot"...
  EXPECT_FALSE(Env::Default()
                   ->WriteStringToFile(dir_ + "/after.bin", "x", false)
                   .ok());
  EXPECT_FALSE(Env::Default()->TruncateFile(path, 0).ok());
  // ...but reads survive, so recovery can inspect the disk.
  EXPECT_EQ(Env::Default()->ReadFileToString(path).value(), "durable");
  registry.DisarmAll();
  EXPECT_FALSE(registry.InCrash());
  EXPECT_TRUE(
      Env::Default()->WriteStringToFile(dir_ + "/after.bin", "x", false).ok());
}

TEST_F(FileTest, CountingRecordsHitsWithoutFiring) {
  auto& registry = FailpointRegistry::Instance();
  registry.EnableCounting(true);
  auto file = Env::Default()->NewWritableFile(dir_ + "/count.bin");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("a").ok());
  ASSERT_TRUE(file.value()->Append("b").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(registry.HitCount("file/open-write"), 1);
  EXPECT_EQ(registry.HitCount("file/append"), 2);
  EXPECT_EQ(registry.HitCount("file/sync"), 1);
  EXPECT_EQ(registry.HitCount("file/close"), 1);
  registry.EnableCounting(false);
  registry.DisarmAll();
  EXPECT_EQ(registry.HitCount("file/append"), 0);
}

}  // namespace
}  // namespace eep
