// Concurrent half of the serving contract, run under TSan in CI: reader
// threads hammer snapshot pins and lookups while a writer commits epoch
// after epoch through a live server. Every answer a reader extracts must
// be bit-identical to Store::ReadTable of the epoch its PINNED snapshot
// names — a swap mid-request never bleeds the next epoch into an answer,
// and epochs only move forward.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "store/store.h"

namespace eep::serve {
namespace {

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_serve_stress_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

// Epoch e's tables are a pure function of e, so a reader can recompute
// exactly what any pinned epoch must answer without coordination.
store::TableData EpochTable(uint64_t epoch) {
  store::TableData table;
  table.name = "jobs";
  table.header = {"place", "sector", "count"};
  const int rows = 64 + static_cast<int>(epoch % 5);
  for (int r = 0; r < rows; ++r) {
    table.rows.push_back(
        {"place-" + std::to_string(r % 13), "s" + std::to_string(r % 4),
         std::to_string((r * 31 + static_cast<int>(epoch) * 977) % 10000)});
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

TEST_F(ServeStressTest, ReadersSeeOnlyWholePinnedEpochsUnderLiveCommits) {
  constexpr int kReaders = 8;
  constexpr uint64_t kEpochs = 12;

  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {EpochTable(1)}).ok());

  ServerOptions options;
  options.poll_interval_ms = 1;
  auto opened = Server::Open(dir_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server* server = opened.value().get();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answers_checked{0};
  std::atomic<int> readers_pinned{0};
  std::vector<std::string> errors(kReaders);
  std::vector<uint64_t> max_epoch_seen(kReaders, 0);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int w = 0; w < kReaders; ++w) {
    // eep-lint: disjoint-writes -- reader w writes only errors[w] and
    // max_epoch_seen[w]; the shared counters are atomics.
    readers.emplace_back([&, w] {
      // Each reader audits against its own read-only store instance:
      // the literal "bit-identical to ReadTable of the pinned epoch"
      // check, via the store's verifying read path.
      auto audit = store::Store::OpenReadOnly(dir_);
      if (!audit.ok()) {
        errors[w] = audit.status().ToString();
        return;
      }
      while (!done.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Snapshot> snap = server->snapshot();
        const uint64_t epoch = snap->epoch();
        if (epoch == 0) continue;
        if (epoch < max_epoch_seen[w]) {
          errors[w] = "epoch moved backwards: " + std::to_string(epoch) +
                      " after " + std::to_string(max_epoch_seen[w]);
          return;
        }
        if (max_epoch_seen[w] == 0) readers_pinned.fetch_add(1);
        max_epoch_seen[w] = epoch;
        if (epoch > audit.value()->last_committed_epoch() &&
            !audit.value()->Refresh().ok()) {
          errors[w] = "audit refresh failed";
          return;
        }
        auto stored = audit.value()->ReadTable(epoch, "jobs");
        if (!stored.ok()) {
          errors[w] = "audit read: " + stored.status().ToString();
          return;
        }
        auto find = snap->Find("jobs");
        if (!find.ok()) {
          errors[w] = find.status().ToString();
          return;
        }
        const ServedTable& served = *find.value();
        // The pinned snapshot must BE the stored epoch, row for row and
        // through the lookup index, even while later epochs commit.
        if (served.Rows() != ServedOrder(stored.value().rows)) {
          errors[w] = "pinned rows differ from stored epoch " +
                      std::to_string(epoch);
          return;
        }
        const auto& rows = stored.value().rows;
        for (size_t r = w % 7; r < rows.size(); r += 7) {
          auto got = served.Lookup({rows[r][0], rows[r][1]});
          if (!got.ok()) {
            errors[w] = got.status().ToString();
            return;
          }
          // Duplicate tuples resolve to the first stored row with that
          // tuple.
          const auto first =
              std::find_if(rows.begin(), rows.end(),
                           [&](const std::vector<std::string>& row) {
                             return row[0] == rows[r][0] &&
                                    row[1] == rows[r][1];
                           });
          if (got.value() != (*first)[2]) {
            errors[w] = "lookup answer not in stored epoch " +
                        std::to_string(epoch);
            return;
          }
          answers_checked.fetch_add(1, std::memory_order_relaxed);
        }
        if (served.TopK(3) != served.TopK(3)) {
          errors[w] = "TopK not deterministic on a pinned snapshot";
          return;
        }
      }
    });
  }

  // The writer starts once every reader has pinned a snapshot (or 10 s
  // pass), so a reader the scheduler has not yet run cannot fail the
  // "never pinned" check below. It then keeps committing under the
  // readers' feet; the server's refresh loop races every commit.
  const auto start_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (readers_pinned.load() < kReaders &&
         std::chrono::steady_clock::now() < start_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (uint64_t epoch = 2; epoch <= kEpochs; ++epoch) {
    ASSERT_TRUE(writer.value()
                    ->CommitEpoch("fp-" + std::to_string(epoch),
                                  {EpochTable(epoch)})
                    .ok())
        << "epoch " << epoch;
    // Give the swap a chance to land so readers pin several distinct
    // epochs, not just the first and last.
    server->WaitForEpoch(epoch, /*timeout_ms=*/5000);
  }
  EXPECT_TRUE(server->WaitForEpoch(kEpochs, /*timeout_ms=*/10000));
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  for (int w = 0; w < kReaders; ++w) {
    EXPECT_TRUE(errors[w].empty()) << "reader " << w << ": " << errors[w];
    EXPECT_GE(max_epoch_seen[w], 1u) << "reader " << w << " never pinned";
  }
  EXPECT_GT(answers_checked.load(), 0u);
  EXPECT_EQ(server->serving_epoch(), kEpochs);
  EXPECT_GE(server->stats().swaps, kEpochs - 1);
  EXPECT_EQ(server->stats().failures, 0u);
}

TEST_F(ServeStressTest, ConcurrentRefreshNowAndReadersStayCoherent) {
  // No background thread: many threads race RefreshNow against pins and
  // lookups, so the refresh_mu_/mu_ split itself is the thing under test.
  auto writer = store::Store::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->CommitEpoch("fp-1", {EpochTable(1)}).ok());

  ServerOptions options;
  options.poll_interval_ms = 0;
  auto opened = Server::Open(dir_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server* server = opened.value().get();

  constexpr int kThreads = 6;
  constexpr uint64_t kEpochs = 8;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> refresh_errors{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        if (!server->RefreshNow().ok()) {
          refresh_errors.fetch_add(1, std::memory_order_relaxed);
        }
        std::shared_ptr<const Snapshot> snap = server->snapshot();
        if (snap->epoch() > 0 && !snap->Find("jobs").ok()) {
          refresh_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (uint64_t epoch = 2; epoch <= kEpochs; ++epoch) {
    ASSERT_TRUE(writer.value()
                    ->CommitEpoch("fp-" + std::to_string(epoch),
                                  {EpochTable(epoch)})
                    .ok());
  }
  EXPECT_TRUE(server->WaitForEpoch(kEpochs, /*timeout_ms=*/10000));
  done.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();

  EXPECT_EQ(refresh_errors.load(), 0u);
  EXPECT_EQ(server->serving_epoch(), kEpochs);
  EXPECT_EQ(server->stats().failures, 0u);
}

}  // namespace
}  // namespace eep::serve
