// End-to-end fault injection through the SSS_FAILPOINTS framework: injected
// reader I/O errors surface as Status, injected stalls and deadlines
// truncate batches gracefully on every execution strategy, and nothing
// hangs or leaks work. This test only builds with -DSSS_FAILPOINTS=ON (see
// tests/CMakeLists.txt).
#include "util/failpoint.h"

#ifndef SSS_FAILPOINTS
#error "fault_injection_test requires -DSSS_FAILPOINTS=ON"
#endif

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "io/reader.h"
#include "parallel/thread_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace sss {
namespace {

using sss::testing::RandomDataset;
using sss::testing::RandomString;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().DisableAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("sss_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPoints::Instance().DisableAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteLines(const std::string& name,
                         const std::vector<std::string>& lines) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
    return path;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Framework mechanics
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, HitCountsRecordEvaluations) {
  FailPoints::Instance().ClearCounts();
  EXPECT_EQ(FailPoints::Instance().HitCount("reader:open"), 0u);
  const std::string path = WriteLines("d.txt", {"abc", "def"});
  ASSERT_TRUE(ReadDatasetFile(path, "d", AlphabetKind::kGeneric).ok());
  EXPECT_GE(FailPoints::Instance().HitCount("reader:open"), 1u);
  EXPECT_GE(FailPoints::Instance().HitCount("reader:read"), 1u);
}

TEST_F(FaultInjectionTest, TimesBudgetExpires) {
  const std::string path = WriteLines("d.txt", {"abc"});
  FailPoints::Instance().Fail("reader:open", Status::IOError("injected"),
                              /*times=*/1);
  auto first = ReadDatasetFile(path, "d", AlphabetKind::kGeneric);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError());
  // The budget is spent: the next read goes through untouched.
  EXPECT_TRUE(ReadDatasetFile(path, "d", AlphabetKind::kGeneric).ok());
}

TEST_F(FaultInjectionTest, DisableRestoresNormalBehavior) {
  const std::string path = WriteLines("d.txt", {"abc"});
  FailPoints::Instance().Fail("reader:open", Status::IOError("injected"));
  ASSERT_FALSE(ReadDatasetFile(path, "d", AlphabetKind::kGeneric).ok());
  FailPoints::Instance().Disable("reader:open");
  EXPECT_TRUE(ReadDatasetFile(path, "d", AlphabetKind::kGeneric).ok());
}

TEST_F(FaultInjectionTest, CallbacksFireOnEvaluation) {
  std::atomic<int> fired{0};
  FailPoints::Instance().Callback("reader:open", [&fired] { ++fired; });
  const std::string path = WriteLines("d.txt", {"abc"});
  ASSERT_TRUE(ReadDatasetFile(path, "d", AlphabetKind::kGeneric).ok());
  EXPECT_GE(fired.load(), 1);
}

// ---------------------------------------------------------------------------
// Injected I/O failures surface as Status, never crashes
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ReaderReadErrorSurfacesAsStatus) {
  const std::string path = WriteLines("d.txt", {"abc", "def"});
  FailPoints::Instance().Fail("reader:read",
                              Status::IOError("injected mid-read failure"));
  auto loaded = ReadDatasetFile(path, "d", AlphabetKind::kGeneric);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().message().find("injected"), std::string::npos);
}

TEST_F(FaultInjectionTest, QueryReaderErrorSurfacesAsStatus) {
  const std::string path = WriteLines("q.txt", {"1\tabc", "2\tdef"});
  FailPoints::Instance().Fail("reader:open", Status::IOError("injected"));
  auto queries = ReadQueryFile(path, 0);
  ASSERT_FALSE(queries.ok());
  EXPECT_TRUE(queries.status().IsIOError());
}

// ---------------------------------------------------------------------------
// Deadline mid-batch: graceful truncation on every strategy
// ---------------------------------------------------------------------------

constexpr ExecutionStrategy kAllStrategies[] = {
    ExecutionStrategy::kSerial, ExecutionStrategy::kThreadPerQuery,
    ExecutionStrategy::kFixedPool, ExecutionStrategy::kAdaptive,
    ExecutionStrategy::kSharded};

TEST_F(FaultInjectionTest, DeadlineMidBatchTruncatesEveryStrategy) {
  Xoshiro256 rng(0xFA01);
  Dataset d = RandomDataset(&rng, "abcd", 300, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  // Every query stalls 10 ms at the run_query hook while the whole batch
  // has a 5 ms budget: whichever queries start must observe the expired
  // deadline right after their stall, the rest are skipped outright.
  FailPoints::Instance().Sleep("searcher:run_query",
                               std::chrono::milliseconds(10));
  SearchContext ctx;
  ctx.deadline = Deadline::AfterMillis(5);
  ctx.check_interval = 1;
  for (ExecutionStrategy strategy : kAllStrategies) {
    ctx.deadline = Deadline::AfterMillis(5);
    const Stopwatch timer;
    const BatchResult batch =
        searcher->SearchBatch(queries, {strategy, 4}, ctx);
    EXPECT_TRUE(batch.truncated) << static_cast<int>(strategy);
    EXPECT_LT(batch.completed, queries.size()) << static_cast<int>(strategy);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!batch.statuses[i].ok()) {
        EXPECT_TRUE(batch.statuses[i].IsCancelled());
        EXPECT_TRUE(batch.matches[i].empty());
      }
    }
    // Nothing hangs: even thread-per-query (32 concurrent 10 ms stalls)
    // finishes orders of magnitude inside this bound.
    EXPECT_LT(timer.ElapsedSeconds(), 30.0) << static_cast<int>(strategy);
  }
}

TEST_F(FaultInjectionTest, SerialDeadlinePreservesCompletedPrefix) {
  Xoshiro256 rng(0xFA02);
  Dataset d = RandomDataset(&rng, "abcd", 200, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  const SearchResults reference =
      searcher->SearchBatch(queries, {ExecutionStrategy::kSerial, 0});

  FailPoints::Instance().Sleep("searcher:run_query",
                               std::chrono::milliseconds(2));
  SearchContext ctx;
  ctx.deadline = Deadline::AfterMillis(25);
  const BatchResult batch =
      searcher->SearchBatch(queries, {ExecutionStrategy::kSerial, 0}, ctx);
  // 64 queries x 2 ms stall >> 25 ms budget: the batch cannot finish, and
  // whatever did finish must match the undisturbed serial reference.
  EXPECT_TRUE(batch.truncated);
  EXPECT_LT(batch.completed, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (batch.statuses[i].ok()) {
      EXPECT_EQ(batch.matches[i], reference[i]) << "query " << i;
    } else {
      EXPECT_TRUE(batch.matches[i].empty()) << "query " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker stalls: recovered, never stranded
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, StalledPoolWorkersRecoverWithoutHang) {
  Xoshiro256 rng(0xFA03);
  Dataset d = RandomDataset(&rng, "abcd", 100, 1, 10);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 10), 1});
  }
  // Stall two of the pool's worker bootstraps for 100 ms; the other workers
  // keep draining, and Wait() must still return once the stalled ones wake.
  FailPoints::Instance().Sleep("thread_pool:task",
                               std::chrono::milliseconds(100), /*times=*/2);
  const Stopwatch timer;
  const BatchResult batch = searcher->SearchBatch(
      queries, {ExecutionStrategy::kFixedPool, 4}, SearchContext{});
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);
  EXPECT_FALSE(batch.truncated);
  EXPECT_EQ(batch.completed, queries.size());
}

TEST_F(FaultInjectionTest, CancelPendingDropsQueuedWork) {
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  // The lone worker stalls 50 ms on its first task, leaving the rest queued
  // where CancelPending can reach them.
  FailPoints::Instance().Sleep("thread_pool:task",
                               std::chrono::milliseconds(50), /*times=*/1);
  pool.Submit([] {});
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&executed] { ++executed; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const size_t dropped = pool.CancelPending();
  pool.Wait();  // must return: queue drained, in-flight accounting intact
  EXPECT_GE(dropped, 10u);
  EXPECT_EQ(executed.load(), 0);
}

// ---------------------------------------------------------------------------
// Allocation path instrumentation
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ArenaAllocationsHitTheFailpoint) {
  FailPoints::Instance().ClearCounts();
  Arena arena;
  (void)arena.NewArray<uint32_t>(1 << 16);
  EXPECT_GE(FailPoints::Instance().HitCount("arena:add_block"), 1u);
}

TEST_F(FaultInjectionTest, ShardedBatchExercisesQueryFailpoint) {
  FailPoints::Instance().ClearCounts();
  Xoshiro256 rng(0xFA04);
  Dataset d = RandomDataset(&rng, "abcd", 2000, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  const SearchResults serial =
      searcher->SearchBatch(queries, {ExecutionStrategy::kSerial, 0});
  const BatchResult sharded = searcher->SearchBatch(
      queries, {ExecutionStrategy::kSharded, 4}, SearchContext{});
  EXPECT_EQ(sharded.matches, serial);
  EXPECT_GE(FailPoints::Instance().HitCount("searcher:run_query"),
            queries.size());
}

// ---------------------------------------------------------------------------
// Serving layer: injected socket faults sever one connection, not the server
// ---------------------------------------------------------------------------

class ServerFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    Xoshiro256 rng(0xFA05);
    dataset_ = RandomDataset(&rng, "abcd", 200, 1, 12);
    searcher_ = std::move(MakeSearcher(EngineKind::kSequentialScan, dataset_))
                    .ValueOrDie();
    ASSERT_TRUE(testing::PublishEngine(&host_, searcher_.get()).ok());
    server::ServerOptions options;
    server_ = std::make_unique<server::Server>(options);
    ASSERT_TRUE(server_->RegisterHost(&host_).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    FaultInjectionTest::TearDown();
  }

  // One clean request/response on a fresh connection.
  void ExpectServes() {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    server::Response response;
    ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kOk);
  }

  Dataset dataset_{"empty", AlphabetKind::kGeneric};
  std::unique_ptr<Searcher> searcher_;
  EngineHost host_{std::vector<EngineSpec>{}};
  std::unique_ptr<server::Server> server_;
};

TEST_F(ServerFaultTest, InjectedReadFaultSeversOneConnection) {
  // Armed before connecting: the handler evaluates server:read when it
  // starts waiting for the first request, so arming later would race.
  FailPoints::Instance().Fail("server:read", Status::IOError("injected"),
                              /*times=*/1);
  auto client = server::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  server::Response response;
  // The server drops the connection without a response frame; the client
  // sees a transport error, never a crash or a hang.
  EXPECT_FALSE(client->Search("abc", 1, 0, &response).ok());
  EXPECT_GE(FailPoints::Instance().HitCount("server:read"), 1u);
  ExpectServes();  // the budget is spent and the server is fine
}

TEST_F(ServerFaultTest, InjectedWriteFaultDropsResponseNotServer) {
  auto client = server::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  FailPoints::Instance().Fail("server:write", Status::IOError("injected"),
                              /*times=*/1);
  server::Response response;
  EXPECT_FALSE(client->Search("abc", 1, 0, &response).ok());
  // The search itself completed before the write was severed.
  EXPECT_EQ(server_->counters().requests_ok.load(), 1u);
  ExpectServes();
}

TEST_F(ServerFaultTest, RepeatedFaultsNeverWedgeTheAcceptLoop) {
  FailPoints::Instance().Fail("server:read", Status::IOError("injected"),
                              /*times=*/5);
  for (int i = 0; i < 5; ++i) {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    server::Response response;
    EXPECT_FALSE(client->Search("abc", 1, 0, &response).ok());
  }
  ExpectServes();
  EXPECT_GE(server_->counters().connections_accepted.load(), 6u);
}

TEST_F(ServerFaultTest, AcceptHookIsOnThePath) {
  FailPoints::Instance().ClearCounts();
  ExpectServes();
  EXPECT_GE(FailPoints::Instance().HitCount("server:accept"), 1u);
}

TEST_F(ServerFaultTest, SlowReadDelaysButDeliversResponse) {
  FailPoints::Instance().Sleep("server:read", std::chrono::milliseconds(30),
                               /*times=*/1);
  const Stopwatch timer;
  ExpectServes();
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);  // delayed, not deadlocked
}

// ---------------------------------------------------------------------------
// Reload path: injected faults fail the reload, never the serving generation
// ---------------------------------------------------------------------------

class HostFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    path_ = WriteLines("host.txt", {"aaaa", "aaaa", "aaaa"});
    host_ = std::make_unique<EngineHost>(
        std::vector<EngineSpec>{EngineSpec::For(EngineKind::kSequentialScan)});
    ASSERT_TRUE(host_->LoadFile(path_).ok());
    baseline_ = host_->generation();
    ASSERT_NE(baseline_, 0u);
  }

  // The serving contract after any failed reload: the old generation still
  // answers, and a clean retry succeeds under a newer id.
  void ExpectOldGenerationServesThenRecovers() {
    EXPECT_EQ(host_->generation(), baseline_);
    const EngineSetHandle set = host_->Acquire();
    ASSERT_NE(set, nullptr);
    EXPECT_EQ(set->generation, baseline_);
    Query query;
    query.text = "aaaa";
    query.max_distance = 0;
    EXPECT_EQ(set->default_engine->Search(query).size(), 3u);
    FailPoints::Instance().DisableAll();
    ASSERT_TRUE(host_->Reload().ok());
    EXPECT_GT(host_->generation(), baseline_);
  }

  std::string path_;
  std::unique_ptr<EngineHost> host_;
  uint64_t baseline_ = 0;
};

TEST_F(HostFaultTest, InjectedReadFaultFailsReloadNotServing) {
  FailPoints::Instance().Fail("engine_host:read", Status::IOError("injected"),
                              /*times=*/1);
  const Status st = host_->Reload();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(host_->counters().reloads_failed.load(), 1u);
  ExpectOldGenerationServesThenRecovers();
}

TEST_F(HostFaultTest, InjectedBuildFaultFailsReloadNotServing) {
  FailPoints::Instance().Fail("engine_host:build",
                              Status::UnknownError("injected build failure"),
                              /*times=*/1);
  ASSERT_FALSE(host_->Reload().ok());
  EXPECT_EQ(host_->counters().reloads_failed.load(), 1u);
  ExpectOldGenerationServesThenRecovers();
}

// ---------------------------------------------------------------------------
// Admin counter taxonomy: a reload that loses the race to a concurrent
// reload (kUnavailable) is transient and retryable — it must count as shed,
// never as rejected (which the ServerCounters doc reserves for kInvalid /
// engine errors).
// ---------------------------------------------------------------------------

class ServerAdminFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    path_ = WriteLines("admin.txt", {"aaaa", "aaaa"});
    host_ = std::make_unique<EngineHost>(
        std::vector<EngineSpec>{EngineSpec::For(EngineKind::kSequentialScan)});
    ASSERT_TRUE(host_->LoadFile(path_).ok());
    server_ = std::make_unique<server::Server>(server::ServerOptions{});
    ASSERT_TRUE(server_->RegisterHost(host_.get()).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    FaultInjectionTest::TearDown();
  }

  std::string path_;
  std::unique_ptr<EngineHost> host_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(ServerAdminFaultTest, ConcurrentReloadCountsAsShedNotRejected) {
  // Hold one reload open inside its build, so the admin-frame reload below
  // deterministically collides with it and comes back kUnavailable.
  const uint64_t build_hits =
      FailPoints::Instance().HitCount("engine_host:build");
  FailPoints::Instance().Sleep("engine_host:build",
                               std::chrono::milliseconds(500), /*times=*/1);
  std::thread slow([&] { ASSERT_TRUE(server_->Reload().ok()); });
  while (FailPoints::Instance().HitCount("engine_host:build") == build_hits) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto client = server::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  server::Response response;
  ASSERT_TRUE(client->Reload("", &response).ok());
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
  slow.join();

  const server::ServerCounters& counters = server_->counters();
  EXPECT_EQ(counters.requests_shed.load(), 1u);      // the losing reload
  EXPECT_EQ(counters.requests_rejected.load(), 0u);  // not an invalid frame
  EXPECT_EQ(counters.reloads_failed.load(), 1u);
  EXPECT_EQ(counters.reloads_ok.load(), 1u);  // the winning reload published

  // A clean retry succeeds and is counted ok.
  ASSERT_TRUE(client->Reload("", &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(counters.requests_shed.load(), 1u);
  EXPECT_EQ(counters.reloads_ok.load(), 2u);
}

TEST_F(HostFaultTest, SlowPublishStallsTheSwapNotTheReaders) {
  // The swap itself stalls 50 ms; readers keep acquiring the old set the
  // whole time, so a slow publish delays the new world without ever leaving
  // a gap where Acquire() returns nothing.
  FailPoints::Instance().Sleep("engine_host:publish",
                               std::chrono::milliseconds(50), /*times=*/1);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> null_acquires{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (host_->Acquire() == nullptr) {
        null_acquires.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  const Stopwatch timer;
  ASSERT_TRUE(host_->Reload().ok());
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(null_acquires.load(), 0u);
  EXPECT_GT(host_->generation(), baseline_);
}

}  // namespace
}  // namespace sss
