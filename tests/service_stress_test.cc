// The saturation proof for the request front, in three parts:
//
//   1. A DETERMINISTIC overload: the gate closed, K waiting places, a
//      flood of M >> K concurrent requests. Exactly K are admitted and
//      exactly M-K are shed with kResourceExhausted — then the fake
//      clock expires the waiting K, and every one of them is answered
//      kDeadlineExceeded with ZERO snapshot work (snapshot_pins == 0).
//   2. A LIVE flood with the gate open on the real clock: every request
//      ends in exactly one outcome bucket, the client-observed tallies
//      reconcile with the service counters to the last request, snapshot
//      pins equal completions exactly, and every Health() sample taken
//      during the flood is consistent.
//   3. The WAKE CHAIN: a top-k holds the only slot long enough for four
//      lookups to wait behind it, and each freed slot must wake the next
//      waiter. A lost wake-up fails within seconds instead of hanging.
//
// This file runs under the CI TSan sweep (the `service` group): the
// counters, the gate's slot and waiting-place handoff, and callers
// running their own requests must all be clean under a genuinely
// saturating thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/store.h"

namespace eep::serve {
namespace {

// Waits until `done` reaches `want`. Blocked callers only move when a
// freed slot wakes them, so a lost wake-up would hang them forever: after
// 10 s this fails and exits instead of waiting for the ctest timeout.
void AwaitOrExit(const std::atomic<int>& done, int want) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < want) {
    if (std::chrono::steady_clock::now() >= give_up) {
      ADD_FAILURE() << "only " << done.load() << " of " << want
                    << " callers answered within 10 s";
      std::fflush(stdout);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class ServiceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_service_stress_test";
    std::filesystem::remove_all(dir_);
    auto writer = store::Store::Open(dir_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    store::TableData table;
    table.name = "jobs";
    table.header = {"place", "count"};
    for (int r = 0; r < 64; ++r) {
      table.rows.push_back(
          {"p" + std::to_string(r), std::to_string(r * 17 % 900)});
    }
    auto committed = writer.value()->CommitEpoch("fp-1", {table});
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ServiceStressTest, FloodAgainstParkedWorkersShedsExactly) {
  constexpr size_t kCapacity = 8;
  constexpr int kFlood = 64;

  FakeClock clock;
  ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  server_options.clock = &clock;
  auto server = Server::Open(dir_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServiceOptions options;
  options.queue_capacity = kCapacity;
  options.num_workers = 2;
  options.start_suspended = true;  // admission runs, execution waits
  auto service = Service::Create(server.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const int64_t deadline = service.value()->DeadlineAfterMs(50);
  std::vector<Status> outcomes(kFlood, Status::OK());
  std::vector<std::thread> clients;
  clients.reserve(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    // eep-lint: disjoint-writes -- client i writes outcomes[i] only.
    clients.emplace_back([&, i] {
      LookupRequest lookup;
      lookup.table = "jobs";
      lookup.values = {{"place", "p" + std::to_string(i % 64)}};
      lookup.deadline_ms = deadline;
      outcomes[i] = service.value()->Lookup(lookup).status();
    });
  }

  // With the gate closed, the flood can only partition into "waiting"
  // (exactly the capacity) and "shed" (everyone else, refused without
  // blocking) — wait for that partition to complete.
  while (true) {
    const ServiceStats stats = service.value()->stats();
    if (stats.admitted + stats.shed == kFlood) break;
    std::this_thread::yield();
  }
  ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted, kCapacity);
  EXPECT_EQ(stats.shed, kFlood - kCapacity);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);  // shedding touched no snapshot

  // Expire every waiting request, then open the gate: each is answered
  // kDeadlineExceeded without pinning a snapshot.
  clock.AdvanceMs(100);
  service.value()->Resume();
  for (auto& t : clients) t.join();

  int shed = 0, expired = 0, other = 0;
  for (const Status& s : outcomes) {
    switch (s.code()) {
      case StatusCode::kResourceExhausted: ++shed; break;
      case StatusCode::kDeadlineExceeded: ++expired; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(shed, kFlood - static_cast<int>(kCapacity));
  EXPECT_EQ(expired, static_cast<int>(kCapacity));
  EXPECT_EQ(other, 0);

  stats = service.value()->stats();
  EXPECT_EQ(stats.expired_in_queue, kCapacity);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);
  // Exact accounting: every request in exactly one bucket.
  EXPECT_EQ(stats.shed + stats.expired_at_admission + stats.admitted,
            static_cast<uint64_t>(kFlood));
  EXPECT_EQ(stats.completed + stats.expired_in_queue, stats.admitted);
}

TEST_F(ServiceStressTest, LiveFloodReconcilesEveryRequestExactly) {
  ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  auto server = Server::Open(dir_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServiceOptions options;
  options.queue_capacity = 4;  // tight: a real chance of shedding
  options.num_workers = 3;
  auto service = Service::Create(server.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kClients = 16;
  constexpr int kPerClient = 25;
  // Generous deadline: an admitted lookup is microseconds of work, so
  // every completion must land inside it (the "admitted requests meet
  // their deadline" half of the contract).
  constexpr int64_t kDeadlineMs = 30000;

  std::atomic<int> ok_count{0}, shed_count{0}, expired_count{0},
      unexpected{0}, clients_finished{0};
  // Health() is one consistent sample: polled throughout the flood, every
  // sample must satisfy the gate's bounds. Only the poller writes these.
  uint64_t samples = 0, inconsistent = 0;
  std::string first_inconsistent;
  std::thread poller([&] {
    const uint64_t slots = static_cast<uint64_t>(options.num_workers);
    const uint64_t places = options.queue_capacity;
    while (clients_finished.load() < kClients) {
      const ServiceStats st = service.value()->Health().stats;
      ++samples;
      const uint64_t left = st.completed + st.expired_in_queue;
      if (left <= st.admitted && st.admitted <= left + places + slots &&
          st.completed <= st.snapshot_pins &&
          st.snapshot_pins <= st.completed + slots) {
        continue;
      }
      if (inconsistent++ == 0) {
        first_inconsistent =
            "admitted " + std::to_string(st.admitted) + ", completed " +
            std::to_string(st.completed) + ", expired_in_queue " +
            std::to_string(st.expired_in_queue) + ", snapshot_pins " +
            std::to_string(st.snapshot_pins);
      }
    }
  });
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t deadline = service.value()->DeadlineAfterMs(kDeadlineMs);
        Status status;
        if (r % 3 == 0) {
          TopKRequest topk;
          topk.table = "jobs";
          topk.k = 5;
          topk.deadline_ms = deadline;
          auto got = service.value()->TopK(topk);
          status = got.status();
          if (got.ok() && got.value().size() != 5u) {
            unexpected.fetch_add(1);
            continue;
          }
        } else {
          LookupRequest lookup;
          lookup.table = "jobs";
          lookup.values = {{"place", "p" + std::to_string((c * 7 + r) % 64)}};
          lookup.deadline_ms = deadline;
          auto got = service.value()->Lookup(lookup);
          status = got.status();
          if (got.ok() && got.value().empty()) {
            unexpected.fetch_add(1);
            continue;
          }
        }
        if (service.value()->NowMs() > deadline && status.ok()) {
          unexpected.fetch_add(1);  // completed but blew its deadline
        } else if (status.ok()) {
          ok_count.fetch_add(1);
        } else if (status.code() == StatusCode::kResourceExhausted) {
          shed_count.fetch_add(1);
        } else if (status.code() == StatusCode::kDeadlineExceeded) {
          expired_count.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
      clients_finished.fetch_add(1);
    });
  }
  AwaitOrExit(clients_finished, kClients);
  for (auto& t : clients) t.join();
  poller.join();
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(inconsistent, 0u) << "first inconsistent Health() sample: "
                              << first_inconsistent;

  constexpr uint64_t kTotal = static_cast<uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(static_cast<uint64_t>(ok_count.load() + shed_count.load() +
                                  expired_count.load()),
            kTotal);
  EXPECT_GT(ok_count.load(), 0);

  // The service's books agree with the clients', request for request.
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted + stats.shed + stats.expired_at_admission, kTotal);
  EXPECT_EQ(stats.completed + stats.expired_in_queue, stats.admitted);
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed_count.load()));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.expired_at_admission + stats.expired_in_queue,
            static_cast<uint64_t>(expired_count.load()));
  // Refused work cost nothing: pins track completions exactly.
  EXPECT_EQ(stats.snapshot_pins, stats.completed);
}

TEST_F(ServiceStressTest, FreedSlotWakesEachWaiterInTurn) {
  // A 2^18-row table: top-k over all of it copies every ranked cell, so
  // it holds the only slot for tens of milliseconds.
  constexpr int kBigRows = 1 << 18;
  constexpr int kWaiters = 4;
  {
    store::TableData big;
    big.name = "big";
    big.header = {"place", "count"};
    big.rows.reserve(kBigRows);
    for (int r = 0; r < kBigRows; ++r) {
      big.rows.push_back(
          {"q" + std::to_string(r), std::to_string(r * 31 % 100000)});
    }
    auto writer = store::Store::Open(dir_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    auto committed = writer.value()->CommitEpoch("fp-1", {big});
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  auto server = Server::Open(dir_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_EQ(server.value()->serving_epoch(), 2u);

  ServiceOptions options;
  options.queue_capacity = 8;
  options.num_workers = 1;
  auto service = Service::Create(server.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Service* raw = service.value().get();

  std::atomic<int> answered{0}, answered_ok{0};
  std::thread holder([&] {
    TopKRequest topk;
    topk.table = "big";
    topk.k = kBigRows;
    auto got = raw->TopK(topk);
    if (got.ok() && got.value().size() == static_cast<size_t>(kBigRows)) {
      answered_ok.fetch_add(1);
    }
    answered.fetch_add(1);
  });
  while (raw->stats().snapshot_pins < 1) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      LookupRequest lookup;
      lookup.table = "big";
      lookup.values = {{"place", "q" + std::to_string(i)}};
      if (raw->Lookup(lookup).ok()) answered_ok.fetch_add(1);
      answered.fetch_add(1);
    });
  }
  // Every lookup took a waiting place while the top-k held the slot.
  ServiceStats stats = raw->stats();
  while (stats.admitted < 1 + kWaiters) {
    std::this_thread::yield();
    stats = raw->stats();
  }
  EXPECT_EQ(stats.completed, 0u)
      << "the top-k finished before the lookups waited behind it";

  // Only the freed slots' wake-ups move the waiters.
  AwaitOrExit(answered, 1 + kWaiters);
  holder.join();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(answered_ok.load(), 1 + kWaiters);
  stats = raw->stats();
  EXPECT_EQ(stats.admitted, 1u + kWaiters);
  EXPECT_EQ(stats.completed, 1u + kWaiters);
  EXPECT_EQ(stats.snapshot_pins, 1u + kWaiters);
}

}  // namespace
}  // namespace eep::serve
