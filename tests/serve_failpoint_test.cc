// Failure isolation of the serving contract: for EVERY write-side
// failpoint site a commit consults, inject an error or a simulated crash
// into a commit attempt while a live server with reader threads is
// serving the previous epoch. The readers must keep getting whole,
// bit-identical answers throughout — from the previous epoch, or from the
// new one only when the fault landed after the commit point — and the
// store must serve the retried epoch once the "writer process" recovers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "serve/server.h"
#include "store/store.h"

namespace eep::serve {
namespace {

class ServeFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_serve_failpoint_test";
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

store::TableData EpochTable(uint64_t epoch) {
  store::TableData table;
  table.name = "jobs";
  table.header = {"place", "count"};
  for (int r = 0; r < 24; ++r) {
    table.rows.push_back(
        {"p" + std::to_string(r % 9),
         std::to_string((r * 53 + static_cast<int>(epoch) * 1009) % 5000)});
  }
  return table;
}

// A table's rows in the order a ServedTable serves them: stably sorted by
// attribute tuple, so Rows() of a served table equals this of the stored
// rows exactly when both hold the same cells, duplicates included.
std::vector<std::vector<std::string>> ServedOrder(
    std::vector<std::vector<std::string>> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
                     return std::lexicographical_compare(
                         a.begin(), a.end() - 1, b.begin(), b.end() - 1);
                   });
  return rows;
}

// The write-side sites one commit consults (site -> hits), recorded in a
// scratch directory; same technique as the store crash matrix.
std::map<std::string, int> CommitSites(const std::string& scratch) {
  auto& registry = FailpointRegistry::Instance();
  std::filesystem::remove_all(scratch);
  auto store = store::Store::Open(scratch);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->CommitEpoch("fp-1", {EpochTable(1)}).ok());
  registry.EnableCounting(true);
  EXPECT_TRUE(store.value()->CommitEpoch("fp-2", {EpochTable(2)}).ok());
  std::map<std::string, int> hits;
  for (const std::string& name : registry.Names()) {
    if (registry.HitCount(name) > 0) hits[name] = registry.HitCount(name);
  }
  registry.EnableCounting(false);
  registry.DisarmAll();
  std::filesystem::remove_all(scratch);
  return hits;
}

TEST_F(ServeFailpointTest, ReadersKeepServingThroughEveryFaultedCommit) {
  auto& registry = FailpointRegistry::Instance();
  const std::map<std::string, int> sites = CommitSites(dir_ + ".scratch");
  // Every write-side site but file/remove and file/truncate, which only
  // recovery consults.
  ASSERT_EQ(sites.size(), 9u);

  const store::TableData epoch1 = EpochTable(1);
  const store::TableData epoch2 = EpochTable(2);
  const auto epoch1_rows = ServedOrder(epoch1.rows);
  const auto epoch2_rows = ServedOrder(epoch2.rows);
  int cases = 0;
  for (const auto& [site, hits] : sites) {
    for (FailpointFault fault :
         {FailpointFault::kError, FailpointFault::kCrash}) {
      const std::string context =
          site + " fault " + std::to_string(static_cast<int>(fault));
      ++cases;
      std::filesystem::remove_all(dir_);
      auto writer = store::Store::Open(dir_);
      ASSERT_TRUE(writer.ok()) << context;
      ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {epoch1}).ok())
          << context;

      ServerOptions options;
      options.poll_interval_ms = 0;  // swaps only at explicit RefreshNow
      auto opened = Server::Open(dir_, options);
      ASSERT_TRUE(opened.ok()) << context << ": "
                               << opened.status().ToString();
      Server* server = opened.value().get();

      // Live readers: pin, answer, audit against the only two epochs
      // that can legally exist, until told to stop.
      constexpr int kReaders = 2;
      std::atomic<bool> done{false};
      std::atomic<uint64_t> checked{0};
      std::vector<std::string> errors(kReaders);
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (int w = 0; w < kReaders; ++w) {
        // eep-lint: disjoint-writes -- reader w writes errors[w] only;
        // the counters are atomics.
        readers.emplace_back([&, w] {
          while (!done.load(std::memory_order_relaxed)) {
            std::shared_ptr<const Snapshot> snap = server->snapshot();
            const store::TableData* want = nullptr;
            const std::vector<std::vector<std::string>>* want_rows = nullptr;
            if (snap->epoch() == 1) {
              want = &epoch1;
              want_rows = &epoch1_rows;
            } else if (snap->epoch() == 2) {
              want = &epoch2;
              want_rows = &epoch2_rows;
            } else {
              errors[w] = "pinned impossible epoch " +
                          std::to_string(snap->epoch());
              return;
            }
            auto find = snap->Find("jobs");
            if (!find.ok()) {
              errors[w] = find.status().ToString();
              return;
            }
            if (find.value()->Rows() != *want_rows) {
              errors[w] = "torn answer: pinned epoch " +
                          std::to_string(snap->epoch()) +
                          " rows are not the committed rows";
              return;
            }
            auto got = find.value()->Lookup({want->rows[5][0]});
            if (!got.ok()) {
              errors[w] = got.status().ToString();
              return;
            }
            checked.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }

      // The faulted commit, with the readers live. Fault at the FIRST
      // hit of the site: the earliest, most destructive point.
      FailpointSpec spec;
      spec.fault = fault;
      spec.hit = 1;
      spec.message = "EIO";
      registry.Arm(site, spec);
      const Status commit =
          writer.value()->CommitEpoch("fp-2", {epoch2}).status();
      // Refresh attempts with the fault window still open must never
      // surface a torn epoch; failure just keeps epoch 1 serving.
      server->RefreshNow().ok();
      registry.DisarmAll();

      // A faulted commit can fail in microseconds; keep the readers live
      // until each has audited at least one answer post-fault.
      for (int spin = 0; spin < 5000 && checked.load(std::memory_order_relaxed) <
                                            static_cast<uint64_t>(kReaders);
           ++spin) {  // bounded: an errored reader stops auditing
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      done.store(true, std::memory_order_relaxed);
      for (auto& t : readers) t.join();
      for (int w = 0; w < kReaders; ++w) {
        ASSERT_TRUE(errors[w].empty())
            << context << " reader " << w << ": " << errors[w];
      }
      EXPECT_GT(checked.load(), 0u) << context;

      // Now that the fault is gone: the epoch the writer managed to
      // commit (2 only when the fault landed after the commit point)
      // must be servable, and a recovered writer's retry must flow
      // through to the reader.
      ASSERT_TRUE(server->RefreshNow().ok()) << context;
      if (commit.ok()) {
        EXPECT_EQ(server->serving_epoch(), 2u) << context;
      } else {
        EXPECT_TRUE(server->serving_epoch() == 1u ||
                    server->serving_epoch() == 2u)
            << context;
      }
      auto recovered = store::Store::Open(dir_);  // the "reboot"
      ASSERT_TRUE(recovered.ok())
          << context << ": " << recovered.status().ToString();
      const uint64_t next = recovered.value()->last_committed_epoch() + 1;
      auto retry = recovered.value()->CommitEpoch(
          "fp-retry", {EpochTable(next)});
      ASSERT_TRUE(retry.ok()) << context << ": "
                              << retry.status().ToString();
      ASSERT_TRUE(server->RefreshNow().ok()) << context;
      EXPECT_EQ(server->serving_epoch(), retry.value()) << context;
      auto served = server->snapshot()->Find("jobs");
      ASSERT_TRUE(served.ok()) << context;
      EXPECT_TRUE(served.value()->Rows() == ServedOrder(EpochTable(next).rows))
          << context;
    }
  }
  EXPECT_EQ(cases, 18);  // the 9 commit sites x {error, crash}
}

// The read-side sites one refresh cycle (Store::Refresh + Snapshot::Load
// of the new epoch) consults, site -> hits, recorded in a scratch
// directory the same way CommitSites records the write side.
std::map<std::string, int> RefreshSites(const std::string& scratch) {
  auto& registry = FailpointRegistry::Instance();
  std::filesystem::remove_all(scratch);
  auto writer = store::Store::Open(scratch);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->CommitEpoch("fp-1", {EpochTable(1)}).ok());
  ServerOptions options;
  options.poll_interval_ms = 0;
  auto server = Server::Open(scratch, options);
  EXPECT_TRUE(server.ok());
  EXPECT_TRUE(writer.value()->CommitEpoch("fp-2", {EpochTable(2)}).ok());
  registry.EnableCounting(true);
  EXPECT_TRUE(server.value()->RefreshNow().ok());
  std::map<std::string, int> hits;
  for (const std::string& name : registry.Names()) {
    if (!registry.IsWriteSide(name) && registry.HitCount(name) > 0) {
      hits[name] = registry.HitCount(name);
    }
  }
  registry.EnableCounting(false);
  registry.DisarmAll();
  std::filesystem::remove_all(scratch);
  return hits;
}

// The read half of the failure-isolation contract: for EVERY read-side
// failpoint site x every hit a refresh consults, inject an error into a
// refresh while live readers are serving epoch 1. The refresh must fail
// WITHOUT disturbing the pinned epoch (degraded, not dead: health flips,
// the backoff schedule steps, answers keep flowing), and the very next
// clean refresh must converge to epoch 2 and clear the degraded state.
TEST_F(ServeFailpointTest, RefreshFaultsDegradeButNeverStopServing) {
  auto& registry = FailpointRegistry::Instance();
  const std::map<std::string, int> sites = RefreshSites(dir_ + ".scratch");
  // A refresh must open AND read files; both inventory read sites appear.
  ASSERT_EQ(sites.size(), 2u);
  ASSERT_TRUE(sites.count("file/open-read"));
  ASSERT_TRUE(sites.count("file/read"));

  const store::TableData epoch1 = EpochTable(1);
  const store::TableData epoch2 = EpochTable(2);
  const auto epoch1_rows = ServedOrder(epoch1.rows);
  const auto epoch2_rows = ServedOrder(epoch2.rows);
  int cases = 0;
  for (const auto& [site, hits] : sites) {
    for (int hit = 1; hit <= hits; ++hit) {
      const std::string context = site + " hit " + std::to_string(hit);
      ++cases;
      std::filesystem::remove_all(dir_);
      auto writer = store::Store::Open(dir_);
      ASSERT_TRUE(writer.ok()) << context;
      ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {epoch1}).ok())
          << context;

      FakeClock clock;
      ServerOptions options;
      options.poll_interval_ms = 0;  // manual refresh, schedule base 1ms
      options.clock = &clock;
      options.degraded_after_failures = 1;
      auto opened = Server::Open(dir_, options);
      ASSERT_TRUE(opened.ok()) << context << ": "
                               << opened.status().ToString();
      Server* server = opened.value().get();

      // Live traffic throughout the fault, same audit as the write-side
      // matrix: whole answers from a legal epoch, nothing torn.
      constexpr int kReaders = 2;
      std::atomic<bool> done{false};
      std::atomic<uint64_t> checked{0};
      std::vector<std::string> errors(kReaders);
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (int w = 0; w < kReaders; ++w) {
        // eep-lint: disjoint-writes -- reader w writes errors[w] only;
        // the counters are atomics.
        readers.emplace_back([&, w] {
          while (!done.load(std::memory_order_relaxed)) {
            std::shared_ptr<const Snapshot> snap = server->snapshot();
            const std::vector<std::vector<std::string>>* want =
                snap->epoch() == 1 ? &epoch1_rows
                : snap->epoch() == 2 ? &epoch2_rows : nullptr;
            if (want == nullptr) {
              errors[w] = "pinned impossible epoch " +
                          std::to_string(snap->epoch());
              return;
            }
            auto find = snap->Find("jobs");
            if (!find.ok() || find.value()->Rows() != *want) {
              errors[w] = "torn answer at epoch " +
                          std::to_string(snap->epoch());
              return;
            }
            checked.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }

      ASSERT_TRUE(writer.value()->CommitEpoch("fp-2", {epoch2}).ok())
          << context;

      // The faulted refresh: fails, counts, backs off — and epoch 1
      // keeps serving bit-identical answers.
      FailpointSpec spec;
      spec.fault = FailpointFault::kError;
      spec.hit = hit;
      spec.message = "EIO";
      registry.Arm(site, spec);
      EXPECT_FALSE(server->RefreshNow().ok()) << context;
      registry.DisarmAll();
      EXPECT_EQ(server->serving_epoch(), 1u) << context;
      ServerHealth health = server->health();
      EXPECT_TRUE(health.degraded) << context;
      EXPECT_EQ(health.consecutive_failures, 1u) << context;
      EXPECT_EQ(health.next_poll_delay_ms, 2) << context;  // 1ms doubled
      EXPECT_EQ(server->stats().failures, 1u) << context;
      auto during = server->snapshot()->Find("jobs");
      ASSERT_TRUE(during.ok()) << context;  // degraded, NOT dead
      EXPECT_TRUE(during.value()->Rows() == epoch1_rows) << context;

      // Readers must audit clean answers with the degraded state live.
      const uint64_t before = checked.load(std::memory_order_relaxed);
      for (int spin = 0;
           spin < 5000 && checked.load(std::memory_order_relaxed) <
                              before + kReaders;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }

      // The fault is gone: the next refresh converges to epoch 2 and the
      // degraded state clears on its own.
      ASSERT_TRUE(server->RefreshNow().ok()) << context;
      EXPECT_EQ(server->serving_epoch(), 2u) << context;
      health = server->health();
      EXPECT_FALSE(health.degraded) << context;
      EXPECT_EQ(health.consecutive_failures, 0u) << context;
      EXPECT_EQ(health.next_poll_delay_ms, 1) << context;  // reset to base

      done.store(true, std::memory_order_relaxed);
      for (auto& t : readers) t.join();
      for (int w = 0; w < kReaders; ++w) {
        ASSERT_TRUE(errors[w].empty())
            << context << " reader " << w << ": " << errors[w];
      }
      EXPECT_GT(checked.load(), 0u) << context;
    }
  }
  EXPECT_GE(cases, 4);
}

}  // namespace
}  // namespace eep::serve
