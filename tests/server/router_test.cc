#include "server/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/net.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace sss::server {
namespace {

using testing::RandomDataset;

constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz";

// A minimal shard stand-in speaking just enough of the wire protocol to
// exercise the router's failure machinery deterministically: it answers
// every search with fixed matches/generation, or stalls (reads the request,
// never replies) — all connections or only the first accepted one, which is
// exactly the shape a hedge needs to win against.
class FakeShard {
 public:
  enum class Mode { kAnswer, kStallAll, kStallFirst };

  explicit FakeShard(Mode mode) : mode_(mode) {}
  ~FakeShard() { Stop(); }

  Status Start() {
    auto listener = net::ListenTcp("127.0.0.1", 0, 16);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(*listener);
    auto port = net::LocalPort(listener_.fd());
    if (!port.ok()) return port.status();
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  void Stop() {
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    (void)net::ShutdownBoth(listener_.fd());
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.Close();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : conns_) {
      (void)net::ShutdownBoth(conn->socket.fd());
    }
    for (const auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }

  uint16_t port() const { return port_; }
  size_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }

  std::vector<uint32_t> matches{1, 2, 3};
  uint64_t generation = 7;

 private:
  struct Conn {
    net::Socket socket;
    std::thread thread;
  };

  void AcceptLoop() {
    for (;;) {
      auto sock = net::Accept(listener_.fd());
      if (!sock.ok()) return;
      const size_t index =
          accepted_.fetch_add(1, std::memory_order_acq_rel);
      auto conn = std::make_unique<Conn>();
      conn->socket = std::move(*sock);
      Conn* raw = conn.get();
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw, index] { Serve(raw, index); });
    }
  }

  void Serve(Conn* conn, size_t index) {
    const int fd = conn->socket.fd();
    for (;;) {
      uint8_t header[kRequestHeaderBytes];
      auto got = net::ReadFull(fd, header, sizeof(header));
      if (!got.ok() || *got < sizeof(header)) return;
      Request request;
      uint32_t query_len = 0;
      if (!DecodeRequestHeader(header, ProtocolLimits{}, &request,
                               &query_len)
               .ok()) {
        return;
      }
      std::string query(query_len, '\0');
      if (query_len > 0) {
        auto q = net::ReadFull(fd, query.data(), query_len);
        if (!q.ok() || *q < query_len) return;
      }
      const bool stall = mode_ == Mode::kStallAll ||
                         (mode_ == Mode::kStallFirst && index == 0);
      if (stall) {
        while (!stopping_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return;
      }
      Response response;
      response.request_id = request.request_id;
      response.matches = matches;
      response.generation = generation;
      std::string frame;
      EncodeResponse(response, &frame);
      if (!net::WriteFull(fd, frame.data(), frame.size()).ok()) return;
    }
  }

  const Mode mode_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> accepted_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

// Binds an ephemeral port and releases it, so tests get a port number with
// (almost certainly) nothing listening on it.
uint16_t ReserveClosedPort() {
  auto listener = net::ListenTcp("127.0.0.1", 0, 1);
  EXPECT_TRUE(listener.ok());
  auto port = net::LocalPort(listener->fd());
  EXPECT_TRUE(port.ok());
  return *port;
}

// Hedging off, tight deterministic backoff: tests opt in to the machinery
// they exercise.
RouterOptions QuickOptions() {
  RouterOptions options;
  options.default_deadline_ms = 2000;
  options.hedge_delay_ms = 0;
  options.max_retries = 1;
  options.retry_backoff =
      BackoffPolicy{.initial = std::chrono::milliseconds(1),
                    .cap = std::chrono::milliseconds(5),
                    .multiplier = 2.0,
                    .jitter = 0.0};
  options.breaker_threshold = 3;
  options.breaker_cooldown_ms = 50;
  return options;
}

Request SearchRequest(uint32_t deadline_ms = 0) {
  Request request;
  request.request_id = 99;
  request.k = 1;
  request.deadline_ms = deadline_ms;
  request.query = "query";
  return request;
}

TEST(ShardSetTest, ParsesValidSpecs) {
  auto one = ShardSet::Parse("127.0.0.1:7071:0");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(one->shards()[0].host, "127.0.0.1");
  EXPECT_EQ(one->shards()[0].port, 7071);
  EXPECT_EQ(one->shards()[0].id_base, 0u);

  auto three = ShardSet::Parse("a:1:0,b:2:1000,c:65535:4294967295");
  ASSERT_TRUE(three.ok());
  ASSERT_EQ(three->size(), 3u);
  EXPECT_EQ(three->shards()[1].id_base, 1000u);
  EXPECT_EQ(three->shards()[2].port, 65535);
  EXPECT_EQ(three->shards()[2].id_base, 0xFFFFFFFFu);
}

TEST(ShardSetTest, RejectsMalformedSpecs) {
  EXPECT_TRUE(ShardSet::Parse("").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("hostonly").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:7071").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse(":7071:0").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:0:0").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:65536:0").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:7x:0").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:7071:4294967296").status().IsInvalid());
  EXPECT_TRUE(ShardSet::Parse("host:7071:0,").status().IsInvalid());

  std::string too_many;
  for (int i = 0; i < 256; ++i) {
    if (i > 0) too_many += ',';
    too_many += "h:1:0";
  }
  EXPECT_TRUE(ShardSet::Parse(too_many).status().IsInvalid());
}

TEST(RouterTest, MergeTranslatesIdsAndReportsShardSet) {
  FakeShard shard0(FakeShard::Mode::kAnswer);
  FakeShard shard1(FakeShard::Mode::kAnswer);
  shard0.matches = {1, 2, 3};
  shard0.generation = 7;
  shard1.matches = {0, 5};
  shard1.generation = 9;
  ASSERT_TRUE(shard0.Start().ok());
  ASSERT_TRUE(shard1.Start().ok());

  Router router(ShardSet({{"127.0.0.1", shard0.port(), 0},
                          {"127.0.0.1", shard1.port(), 100}}),
                QuickOptions());
  const Response response = router.Dispatch(SearchRequest());
  EXPECT_EQ(response.request_id, 99u);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.matches, (std::vector<uint32_t>{1, 2, 3, 100, 105}));
  EXPECT_EQ(response.generation, 7u);  // lowest among answered shards
  EXPECT_EQ(response.total_shards, 2);
  ASSERT_EQ(response.shards.size(), 2u);
  EXPECT_EQ(response.shards[0], (ShardGeneration{0, 7}));
  EXPECT_EQ(response.shards[1], (ShardGeneration{1, 9}));
}

TEST(RouterTest, NonSearchFramesAreRejected) {
  Router router(ShardSet({{"127.0.0.1", 1, 0}}), QuickOptions());
  Request admin;
  admin.type = FrameType::kAdmin;
  admin.k = kAdminOpGetGeneration;
  const Response response = router.Dispatch(admin);
  EXPECT_EQ(response.code, StatusCode::kInvalid);
}

TEST(RouterTest, DegradedWhenOneShardIsDown) {
  FakeShard shard0(FakeShard::Mode::kAnswer);
  ASSERT_TRUE(shard0.Start().ok());
  const uint16_t dead_port = ReserveClosedPort();

  StatsSink sink;
  RouterOptions options = QuickOptions();
  options.stats = &sink;
  Router router(ShardSet({{"127.0.0.1", shard0.port(), 0},
                          {"127.0.0.1", dead_port, 100}}),
                options);
  const Response response = router.Dispatch(SearchRequest());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.matches, shard0.matches);
  EXPECT_EQ(response.total_shards, 2);
  ASSERT_EQ(response.shards.size(), 1u);
  EXPECT_EQ(response.shards[0].shard, 0);

  EXPECT_EQ(router.counters().degraded_responses.load(), 1u);
  EXPECT_GE(router.counters().shard_errors.load(), 1u);
  const SearchStats stats = sink.Collected();
  EXPECT_EQ(stats.router_requests, 1u);
  EXPECT_EQ(stats.router_degraded_responses, 1u);
  EXPECT_GE(stats.router_shard_errors, 1u);
}

TEST(RouterTest, AllShardsDownReturnsUnavailable) {
  const uint16_t dead0 = ReserveClosedPort();
  const uint16_t dead1 = ReserveClosedPort();
  Router router(
      ShardSet({{"127.0.0.1", dead0, 0}, {"127.0.0.1", dead1, 100}}),
      QuickOptions());
  const Response response = router.Dispatch(SearchRequest());
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
  EXPECT_TRUE(response.shards.empty());
  EXPECT_GE(router.counters().shard_errors.load(), 2u);
}

TEST(RouterTest, BreakerOpensShortCircuitsAndRecovers) {
  const uint16_t port = ReserveClosedPort();
  RouterOptions options = QuickOptions();
  options.max_retries = 0;  // one transport attempt per dispatch
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 100;
  Router router(ShardSet({{"127.0.0.1", port, 0}}), options);

  // Two consecutive connect failures trip the breaker...
  EXPECT_EQ(router.Dispatch(SearchRequest()).code, StatusCode::kUnavailable);
  EXPECT_EQ(router.breaker_state(0), BreakerState::kClosed);
  EXPECT_EQ(router.Dispatch(SearchRequest()).code, StatusCode::kUnavailable);
  EXPECT_EQ(router.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(router.counters().breaker_opens.load(), 1u);

  // ...after which dispatches short-circuit without dialing.
  const uint64_t errors_when_open = router.counters().shard_errors.load();
  EXPECT_EQ(router.Dispatch(SearchRequest()).code, StatusCode::kUnavailable);
  EXPECT_EQ(router.counters().shard_errors.load(), errors_when_open);
  EXPECT_GE(router.counters().breaker_short_circuits.load(), 1u);

  // Shard comes back on the same port; after the cooldown the half-open
  // probe goes through and closes the circuit.
  Xoshiro256 rng(0x5E12);
  const Dataset dataset = RandomDataset(&rng, kAlpha, 50, 3, 10);
  auto scan = MakeSearcher(EngineKind::kSequentialScan, dataset);
  ASSERT_TRUE(scan.ok());
  ServerOptions server_options;
  server_options.host = "127.0.0.1";
  server_options.port = port;
  EngineHost host(std::vector<EngineSpec>{});
  ASSERT_TRUE(testing::PublishEngine(&host, scan->get()).ok());
  Server server(server_options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());

  std::this_thread::sleep_for(
      std::chrono::milliseconds(options.breaker_cooldown_ms + 20));
  const Response recovered = router.Dispatch(SearchRequest());
  EXPECT_EQ(recovered.code, StatusCode::kOk);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(router.breaker_state(0), BreakerState::kClosed);
  server.Stop();
}

TEST(RouterTest, ClientCallTimesOutAgainstAStalledServer) {
  FakeShard shard(FakeShard::Mode::kStallAll);
  ASSERT_TRUE(shard.Start().ok());

  auto client = Client::Connect("127.0.0.1", shard.port());
  ASSERT_TRUE(client.ok());
  Response response;
  const auto start = std::chrono::steady_clock::now();
  const Status st = client->Call(SearchRequest(/*deadline_ms=*/100),
                                 &response);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  // Deadline 100ms + default 50ms slack; anything near a second means the
  // socket timeout never armed.
  EXPECT_LT(elapsed, std::chrono::milliseconds(900));
}

TEST(RouterTest, HedgeWinsWhenTheFirstConnectionStalls) {
  FakeShard shard(FakeShard::Mode::kStallFirst);
  ASSERT_TRUE(shard.Start().ok());

  RouterOptions options = QuickOptions();
  options.hedge_delay_ms = 50;
  options.max_retries = 0;
  options.default_deadline_ms = 3000;
  Router router(ShardSet({{"127.0.0.1", shard.port(), 0}}), options);

  const Response response = router.Dispatch(SearchRequest());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.matches, shard.matches);
  EXPECT_EQ(router.counters().hedges_fired.load(), 1u);
  EXPECT_EQ(router.counters().hedges_won.load(), 1u);
  EXPECT_GE(shard.accepted(), 2u);  // original + hedge connection
}

TEST(RouterTest, HedgeBudgetIsOnePerRequest) {
  FakeShard shard0(FakeShard::Mode::kStallAll);
  FakeShard shard1(FakeShard::Mode::kStallAll);
  ASSERT_TRUE(shard0.Start().ok());
  ASSERT_TRUE(shard1.Start().ok());

  RouterOptions options = QuickOptions();
  options.hedge_delay_ms = 30;
  options.max_retries = 0;
  options.default_deadline_ms = 250;
  Router router(ShardSet({{"127.0.0.1", shard0.port(), 0},
                          {"127.0.0.1", shard1.port(), 100}}),
                options);

  const Response response = router.Dispatch(SearchRequest());
  // Every attempt (and the one hedge) stalled out: explicit unavailability,
  // and exactly one hedge despite two slow shards.
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
  EXPECT_EQ(router.counters().hedges_fired.load(), 1u);
  EXPECT_EQ(router.counters().hedges_won.load(), 0u);
}

TEST(RouterTest, ServerFrontEndCarriesRouterResponsesOverTheWire) {
  FakeShard shard0(FakeShard::Mode::kAnswer);
  FakeShard shard1(FakeShard::Mode::kAnswer);
  shard1.generation = 8;
  ASSERT_TRUE(shard0.Start().ok());
  ASSERT_TRUE(shard1.Start().ok());

  Router router(ShardSet({{"127.0.0.1", shard0.port(), 0},
                          {"127.0.0.1", shard1.port(), 100}}),
                QuickOptions());
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  Server server(options);
  ASSERT_TRUE(server
                  .RegisterHandler([&router](const Request& request) {
                    return router.Dispatch(request);
                  })
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Response response;
  ASSERT_TRUE(client->Search("query", 1, 500, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.matches, (std::vector<uint32_t>{1, 2, 3, 101, 102, 103}));
  EXPECT_EQ(response.total_shards, 2);
  ASSERT_EQ(response.shards.size(), 2u);
  EXPECT_EQ(response.shards[0], (ShardGeneration{0, 7}));
  EXPECT_EQ(response.shards[1], (ShardGeneration{1, 8}));
  EXPECT_EQ(response.generation, 7u);

  // Admin frames reach the handler too and come back as its verdict.
  Response admin;
  ASSERT_TRUE(client->GetGeneration(&admin).ok());
  EXPECT_EQ(admin.code, StatusCode::kInvalid);

  EXPECT_EQ(server.counters().requests_ok.load(), 1u);
  EXPECT_EQ(server.counters().requests_rejected.load(), 1u);
  server.Stop();
}

// Engine wrapper that stalls inside Search until released (or stopped via
// the context), so a test can hold every fan-out open at once.
class GatedSearcher : public Searcher {
 public:
  explicit GatedSearcher(const Searcher* inner) : inner_(inner) {}

  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override {
    while (!released_.load(std::memory_order_acquire)) {
      if (ctx.StopRequested()) {
        out->clear();
        return ctx.StopStatus();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_->Search(query, ctx, out);
  }

  std::string name() const override { return "gated_" + inner_->name(); }

  void Release() { released_.store(true, std::memory_order_release); }

 private:
  const Searcher* inner_;
  std::atomic<bool> released_{false};
};

// Concurrent fan-outs share one channel per shard: 8 Dispatch calls over two
// in-process shard servers (each serving half of a collection) are all in
// flight on both shards before any shard answers, so every call after the
// first multiplexes — and none of them costs a shard error. The merged
// answers are the whole collection's.
TEST(RouterTest, ConcurrentDispatchesMultiplexOverTwoShardChannels) {
  constexpr size_t kShards = 2;
  constexpr size_t kCallers = 8;
  Xoshiro256 rng(0x2C4A);
  const Dataset whole = RandomDataset(&rng, kAlpha, 200, 3, 10);
  auto whole_scan = MakeSearcher(EngineKind::kSequentialScan, whole);
  ASSERT_TRUE(whole_scan.ok());

  const size_t half = (whole.size() + 1) / kShards;
  std::vector<Dataset> slices;
  slices.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    Dataset slice("shard" + std::to_string(s), AlphabetKind::kGeneric);
    for (size_t i = s * half; i < std::min(whole.size(), (s + 1) * half);
         ++i) {
      slice.Add(whole.View(i));
    }
    slices.push_back(std::move(slice));
  }
  std::vector<std::unique_ptr<Searcher>> scans;
  std::vector<std::unique_ptr<GatedSearcher>> gates;
  std::vector<std::unique_ptr<EngineHost>> hosts;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<ShardSpec> specs;
  for (size_t s = 0; s < kShards; ++s) {
    auto scan = MakeSearcher(EngineKind::kSequentialScan, slices[s]);
    ASSERT_TRUE(scan.ok());
    scans.push_back(std::move(*scan));
    gates.push_back(std::make_unique<GatedSearcher>(scans.back().get()));
    hosts.push_back(std::make_unique<EngineHost>(std::vector<EngineSpec>{}));
    ASSERT_TRUE(
        testing::PublishEngine(hosts.back().get(), gates.back().get()).ok());
    ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    auto server = std::make_unique<Server>(options);
    ASSERT_TRUE(server->RegisterHost(hosts.back().get()).ok());
    ASSERT_TRUE(server->Start().ok());
    specs.push_back(
        {"127.0.0.1", server->port(), static_cast<uint32_t>(s * half)});
    servers.push_back(std::move(server));
  }

  StatsSink sink;
  RouterOptions options = QuickOptions();
  options.default_deadline_ms = 10000;
  options.stats = &sink;  // hedging stays off: every call rides the channel
  Router router(ShardSet(specs), options);

  std::vector<std::string> queries;
  for (size_t t = 0; t < kCallers; ++t) {
    queries.push_back(testing::RandomString(&rng, kAlpha, 3, 10));
  }
  std::vector<Response> responses(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      Request request = SearchRequest();
      request.k = 2;
      request.query = queries[t];
      responses[t] = router.Dispatch(request);
    });
  }
  // Admission slots are claimed as frames are decoded, so once each shard
  // holds every caller's request, all of them were written to the shared
  // channels while the first was still unanswered.
  for (const auto& server : servers) {
    while (server->inflight() < kCallers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (const auto& gate : gates) gate->Release();
  for (std::thread& caller : callers) caller.join();

  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(responses[t].code, StatusCode::kOk) << "caller " << t;
    EXPECT_FALSE(responses[t].degraded) << "caller " << t;
    EXPECT_EQ(responses[t].matches,
              (*whole_scan)->Search(Query{queries[t], 2}))
        << "caller " << t;
  }
  const SearchStats stats = sink.Collected();
  EXPECT_EQ(stats.router_requests, kCallers);
  EXPECT_GT(stats.router_channel_multiplexed, 0u);
  EXPECT_EQ(stats.router_shard_errors, 0u);
  for (const auto& server : servers) server->Stop();
}

TEST(RouterTest, ShardLossMidStreamDegradesInsteadOfFailing) {
  FakeShard shard0(FakeShard::Mode::kAnswer);
  auto shard1 = std::make_unique<FakeShard>(FakeShard::Mode::kAnswer);
  ASSERT_TRUE(shard0.Start().ok());
  ASSERT_TRUE(shard1->Start().ok());

  RouterOptions options = QuickOptions();
  options.default_deadline_ms = 500;
  Router router(ShardSet({{"127.0.0.1", shard0.port(), 0},
                          {"127.0.0.1", shard1->port(), 100}}),
                options);

  EXPECT_FALSE(router.Dispatch(SearchRequest()).degraded);
  shard1->Stop();
  shard1.reset();  // the shard process is gone mid-stream

  const Response after = router.Dispatch(SearchRequest());
  EXPECT_EQ(after.code, StatusCode::kOk);
  EXPECT_TRUE(after.degraded);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.shards[0].shard, 0);
}

}  // namespace
}  // namespace sss::server
