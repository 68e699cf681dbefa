// The request front's deterministic halves: admission and slot
// deadline gates, full-waiting-places shedding, exact outcome accounting
// (snapshot_pins == completed), health transitions healthy -> degraded ->
// recovered with the exact failure-backoff schedule, and Server::Open's
// bounded retry of IOErrors — all driven by a FakeClock, no real sleeps, no
// timing assumptions. The saturation proof under real concurrency lives in
// service_stress_test.cc.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/file.h"
#include "serve/server.h"
#include "store/store.h"

namespace eep::serve {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_service_test";
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  store::TableData MakeTable(int salt = 0) {
    store::TableData table;
    table.name = "jobs";
    table.header = {"place", "count"};
    for (int r = 0; r < 12; ++r) {
      table.rows.push_back({"p" + std::to_string(r),
                            std::to_string((r * 31 + salt * 7) % 500)});
    }
    return table;
  }

  void CommitEpoch(const std::string& fingerprint, int salt = 0) {
    auto writer = store::Store::Open(dir_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    auto committed = writer.value()->CommitEpoch(fingerprint, {MakeTable(salt)});
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }

  // A manual-refresh server on the fake clock.
  Result<std::unique_ptr<Server>> TryOpenServer(ServerOptions options = {}) {
    options.poll_interval_ms = 0;
    options.clock = &clock_;
    return Server::Open(dir_, options);
  }
  std::unique_ptr<Server> OpenServer(ServerOptions options = {}) {
    auto server = TryOpenServer(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  // Commits one epoch, flips a byte in the middle of the store's `file`,
  // and checks that Open gives up with the IOError after exactly four
  // attempts: one sleep of the failure schedule precedes each retry.
  void ExpectOpenGivesUpOnCorrupt(const std::string& file) {
    CommitEpoch("fp-1");
    const std::string path = dir_ + "/" + file;
    auto bytes = Env::Default()->ReadFileToString(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::string data = std::move(bytes).value();
    data[data.size() / 2] ^= 0xFF;
    ASSERT_TRUE(Env::Default()->WriteStringToFile(path, data, false).ok());

    EXPECT_EQ(TryOpenServer().status().code(), StatusCode::kIOError);
    EXPECT_EQ(clock_.sleeps(), (std::vector<int64_t>{10, 20, 40}));
  }

  std::string dir_;
  FakeClock clock_;
};

TEST_F(ServiceTest, LookupAndTopKAnswerVerbatimThroughTheQueue) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  auto service = Service::Create(server.get());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  LookupRequest lookup;
  lookup.table = "jobs";
  lookup.values = {{"place", "p3"}};
  auto count = service.value()->Lookup(lookup);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), MakeTable().rows[3][1]);

  TopKRequest topk;
  topk.table = "jobs";
  topk.k = 4;
  auto ranked = service.value()->TopK(topk);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked.value().size(), 4u);
  // Same answer the snapshot gives directly: the gate adds no rewriting.
  const std::shared_ptr<const Snapshot> snap = server->snapshot();
  EXPECT_EQ(ranked.value(), snap->Find("jobs").value()->TopK(4));

  // A missing table is an executed (completed) request, not a shed one.
  LookupRequest missing;
  missing.table = "no-such-table";
  EXPECT_EQ(service.value()->Lookup(missing).status().code(),
            StatusCode::kNotFound);

  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.snapshot_pins, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired_at_admission, 0u);
  EXPECT_EQ(stats.expired_in_queue, 0u);
}

TEST_F(ServiceTest, CreateValidatesItsOptions) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  EXPECT_EQ(Service::Create(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  ServiceOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_EQ(Service::Create(server.get(), zero_queue).status().code(),
            StatusCode::kInvalidArgument);
  ServiceOptions zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_EQ(Service::Create(server.get(), zero_workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, ExpiredDeadlineIsRefusedAtAdmission) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  auto service = Service::Create(server.get());
  ASSERT_TRUE(service.ok());

  clock_.AdvanceMs(1000);
  LookupRequest lookup;
  lookup.table = "jobs";
  lookup.values = {{"place", "p1"}};
  lookup.deadline_ms = 500;  // already in the past
  EXPECT_EQ(service.value()->Lookup(lookup).status().code(),
            StatusCode::kDeadlineExceeded);

  // Refused before the gate and before any snapshot: nothing admitted,
  // nothing pinned.
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.expired_at_admission, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);

  // An exactly-now deadline is expired too (the gate is now >= deadline).
  lookup.deadline_ms = service.value()->NowMs();
  EXPECT_EQ(service.value()->Lookup(lookup).status().code(),
            StatusCode::kDeadlineExceeded);
  // A future deadline sails through.
  lookup.deadline_ms = service.value()->DeadlineAfterMs(50);
  EXPECT_TRUE(service.value()->Lookup(lookup).ok());
}

TEST_F(ServiceTest, DeadlineExpiredInQueueNeverTouchesASnapshot) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  ServiceOptions options;
  options.start_suspended = true;  // the gate starts closed
  options.num_workers = 1;
  auto service = Service::Create(server.get(), options);
  ASSERT_TRUE(service.ok());

  LookupRequest lookup;
  lookup.table = "jobs";
  lookup.values = {{"place", "p2"}};
  lookup.deadline_ms = service.value()->DeadlineAfterMs(50);
  Status got = Status::OK();
  std::thread client([&] {
    got = service.value()->Lookup(lookup).status();
  });
  // The request is admitted (gate closed), then its deadline passes
  // while it waits.
  while (service.value()->stats().admitted < 1) std::this_thread::yield();
  clock_.AdvanceMs(100);
  service.value()->Resume();
  client.join();

  EXPECT_EQ(got.code(), StatusCode::kDeadlineExceeded);
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);  // expired work pins nothing
}

TEST_F(ServiceTest, FullQueueShedsImmediatelyWithoutBlocking) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  ServiceOptions options;
  options.start_suspended = true;
  options.queue_capacity = 2;
  options.num_workers = 1;
  auto service = Service::Create(server.get(), options);
  ASSERT_TRUE(service.ok());

  LookupRequest lookup;
  lookup.table = "jobs";
  lookup.values = {{"place", "p4"}};
  std::vector<std::thread> clients;
  std::vector<Status> outcomes(2, Status::OK());
  for (int i = 0; i < 2; ++i) {
    // eep-lint: disjoint-writes -- client i writes outcomes[i] only.
    clients.emplace_back([&, i] {
      outcomes[i] = service.value()->Lookup(lookup).status();
    });
  }
  while (service.value()->stats().admitted < 2) std::this_thread::yield();

  // Waiting places full, gate closed: the next request is refused on the
  // calling thread, immediately — this call would otherwise deadlock.
  EXPECT_EQ(service.value()->Lookup(lookup).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.value()->stats().shed, 1u);

  service.value()->Resume();
  for (auto& t : clients) t.join();
  for (const Status& s : outcomes) EXPECT_TRUE(s.ok()) << s.ToString();
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.snapshot_pins, 2u);
}

TEST_F(ServiceTest, DestructorDrainsParkedRequests) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  ServiceOptions options;
  options.start_suspended = true;
  options.num_workers = 1;
  auto service = Service::Create(server.get(), options);
  ASSERT_TRUE(service.ok());
  // The client thread uses a raw pointer captured up front: the
  // unique_ptr itself is reset on the main thread mid-test, and the
  // drain contract is about the Service object, not its handle.
  Service* raw = service.value().get();

  // Four callers wait behind the closed gate for its one slot.
  constexpr int kParked = 4;
  LookupRequest lookup;
  lookup.table = "jobs";
  lookup.values = {{"place", "p5"}};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kParked; ++i) {
    clients.emplace_back([&] {
      if (raw->Lookup(lookup).ok()) answered.fetch_add(1);
    });
  }
  while (raw->stats().admitted < kParked) std::this_thread::yield();
  // Shutdown with parked callers: each request still gets an outcome (its
  // deadline-free lookup runs during the drain, one slot at a time).
  service.value().reset();
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kParked);
}

TEST_F(ServiceTest, HealthReportsDegradedThenRecoversWithExactBackoff) {
  // Opened over an empty store gated on "fp-right": commits with the
  // wrong fingerprint make every refresh fail without any fault
  // injection.
  ServerOptions server_options;
  server_options.degraded_after_failures = 2;
  server_options.expected_fingerprint = "fp-right";
  auto server = OpenServer(server_options);
  auto service = Service::Create(server.get());
  ASSERT_TRUE(service.ok());

  ServiceHealth health = service.value()->Health();
  EXPECT_EQ(health.state, ServiceState::kHealthy);
  EXPECT_EQ(health.server.serving_epoch, 0u);
  // poll_interval 0 -> schedule base 1ms: the resting delay.
  EXPECT_EQ(health.server.next_poll_delay_ms, 1);

  CommitEpoch("fp-wrong");
  // Failure 1: not yet degraded, but the schedule has stepped 1 -> 2.
  EXPECT_EQ(server->RefreshNow().code(), StatusCode::kFailedPrecondition);
  health = service.value()->Health();
  EXPECT_EQ(health.state, ServiceState::kHealthy);
  EXPECT_EQ(health.server.consecutive_failures, 1u);
  EXPECT_EQ(health.server.next_poll_delay_ms, 2);

  // Failure 2 crosses the threshold: degraded, schedule 2 -> 4 — and the
  // pinned (empty) epoch is still the one serving.
  EXPECT_FALSE(server->RefreshNow().ok());
  health = service.value()->Health();
  EXPECT_EQ(health.state, ServiceState::kDegraded);
  EXPECT_TRUE(health.server.degraded);
  EXPECT_EQ(health.server.consecutive_failures, 2u);
  EXPECT_EQ(health.server.next_poll_delay_ms, 4);
  EXPECT_EQ(health.server.serving_epoch, 0u);
  EXPECT_EQ(server->stats().backoffs, 2u);
  LookupRequest lookup;
  lookup.table = "jobs";
  EXPECT_EQ(service.value()->Lookup(lookup).status().code(),
            StatusCode::kNotFound);  // degraded, not dead

  // The right release lands: refresh succeeds, health recovers on its
  // own, the schedule snaps back to the base.
  CommitEpoch("fp-right", /*salt=*/1);
  ASSERT_TRUE(server->RefreshNow().ok());
  health = service.value()->Health();
  EXPECT_EQ(health.state, ServiceState::kHealthy);
  EXPECT_EQ(health.server.consecutive_failures, 0u);
  EXPECT_EQ(health.server.next_poll_delay_ms, 1);
  EXPECT_EQ(health.server.serving_epoch, 2u);
  lookup.values = {{"place", "p1"}};
  EXPECT_TRUE(service.value()->Lookup(lookup).ok());
}

TEST_F(ServiceTest, BackoffScheduleDoublesToTheCapOnly) {
  ServerOptions server_options;
  server_options.expected_fingerprint = "fp-right";
  auto server = OpenServer(server_options);
  CommitEpoch("fp-wrong");

  // 1 -> 2 -> 4 -> 8 -> 16, then the 16x-base cap holds: backoffs counts
  // only growth.
  const std::vector<int64_t> want = {2, 4, 8, 16, 16, 16};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_FALSE(server->RefreshNow().ok());
    EXPECT_EQ(server->health().next_poll_delay_ms, want[i]) << i;
  }
  EXPECT_EQ(server->stats().failures, want.size());
  EXPECT_EQ(server->stats().backoffs, 4u);
}

TEST_F(ServiceTest, EpochAgeTracksTheFakeClock) {
  CommitEpoch("fp-1");
  auto server = OpenServer();
  auto service = Service::Create(server.get());
  ASSERT_TRUE(service.ok());

  clock_.AdvanceMs(750);
  EXPECT_EQ(service.value()->Health().server.epoch_age_ms, 750);
  CommitEpoch("fp-2", /*salt=*/2);
  ASSERT_TRUE(server->RefreshNow().ok());
  EXPECT_EQ(service.value()->Health().server.epoch_age_ms, 0);
  clock_.AdvanceMs(40);
  EXPECT_EQ(service.value()->Health().server.epoch_age_ms, 40);
}

TEST_F(ServiceTest, OpenRetriesTransientReadFaults) {
  CommitEpoch("fp-1");

  // A one-shot disk fault at open is absorbed: the failed attempt is
  // followed by the schedule's first 10 ms sleep on the fake clock, and
  // the retry loads the epoch.
  FailpointSpec spec;
  spec.fault = FailpointFault::kError;
  spec.hit = 1;
  spec.message = "EIO";
  FailpointRegistry::Instance().Arm("file/open-read", spec);
  auto server = OpenServer();
  EXPECT_EQ(server->serving_epoch(), 1u);
  EXPECT_EQ(clock_.sleeps(), (std::vector<int64_t>{10}));

  // A fingerprint mismatch is not an IOError: it returns at once, with no
  // sleep added.
  FailpointRegistry::Instance().DisarmAll();
  ServerOptions gated;
  gated.expected_fingerprint = "fp-other";
  EXPECT_EQ(TryOpenServer(gated).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(clock_.sleeps(), (std::vector<int64_t>{10}));
}

TEST_F(ServiceTest, OpenGivesUpOnACorruptManifestAfterFourAttempts) {
  ExpectOpenGivesUpOnCorrupt("MANIFEST");
}

TEST_F(ServiceTest, OpenGivesUpOnACorruptSegmentAfterFourAttempts) {
  ExpectOpenGivesUpOnCorrupt("ep1-t0.seg");
}

}  // namespace
}  // namespace eep::serve
