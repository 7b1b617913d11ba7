// Fault injection for the scatter-gather plane: the router's failpoint
// hooks are on the dispatch path, an injected server-side write stall
// surfaces client-side as kDeadlineExceeded (not a hang), and losing a
// shard mid-traffic degrades answers instead of failing them. Only builds
// with -DSSS_FAILPOINTS=ON (see tests/CMakeLists.txt).
#include "util/failpoint.h"

#ifndef SSS_FAILPOINTS
#error "router_fault_test requires -DSSS_FAILPOINTS=ON"
#endif

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "server/client.h"
#include "server/router.h"
#include "server/server.h"
#include "test_util.h"
#include "util/random.h"

namespace sss::server {
namespace {

using sss::testing::RandomDataset;

constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz";

class RouterFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().DisableAll();
    FailPoints::Instance().ClearCounts();
    Xoshiro256 rng(0x404);
    // Scans borrow the datasets, hosts the scans and servers the hosts,
    // so the datasets must never reallocate once handed out.
    datasets_.reserve(2);
    for (int i = 0; i < 2; ++i) {
      datasets_.push_back(RandomDataset(&rng, kAlpha, 200, 3, 10));
      auto scan = MakeSearcher(EngineKind::kSequentialScan, datasets_[i]);
      ASSERT_TRUE(scan.ok());
      scans_.push_back(std::move(*scan));
      hosts_.push_back(
          std::make_unique<EngineHost>(std::vector<EngineSpec>{}));
      ASSERT_TRUE(
          testing::PublishEngine(hosts_[i].get(), scans_[i].get()).ok());
      ServerOptions options;
      options.host = "127.0.0.1";
      options.port = 0;
      auto server = std::make_unique<Server>(options);
      ASSERT_TRUE(server->RegisterHost(hosts_[i].get()).ok());
      ASSERT_TRUE(server->Start().ok());
      servers_.push_back(std::move(server));
    }
  }

  void TearDown() override { FailPoints::Instance().DisableAll(); }

  Router MakeRouter() {
    RouterOptions options;
    options.default_deadline_ms = 1000;
    options.hedge_delay_ms = 0;
    options.max_retries = 1;
    options.retry_backoff =
        BackoffPolicy{.initial = std::chrono::milliseconds(1),
                      .cap = std::chrono::milliseconds(5),
                      .multiplier = 2.0,
                      .jitter = 0.0};
    return Router(ShardSet({{"127.0.0.1", servers_[0]->port(), 0},
                            {"127.0.0.1", servers_[1]->port(), 1000}}),
                  options);
  }

  Request SearchRequest() {
    Request request;
    request.request_id = 1;
    request.k = 1;
    request.query = std::string(datasets_[0].View(0));
    return request;
  }

  std::vector<Dataset> datasets_;
  std::vector<std::unique_ptr<Searcher>> scans_;
  std::vector<std::unique_ptr<EngineHost>> hosts_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(RouterFaultTest, FanoutAndMergeHooksAreOnThePath) {
  Router router = MakeRouter();
  const Response response = router.Dispatch(SearchRequest());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_GE(FailPoints::Instance().HitCount("router:fanout"), 1u);
  EXPECT_GE(FailPoints::Instance().HitCount("router:merge"), 1u);
}

TEST_F(RouterFaultTest, InjectedWriteStallSurfacesAsClientDeadline) {
  // The shard accepts the request, searches, then stalls writing the
  // response — the worst kind of slow peer, invisible to connect-level
  // health checks. The client's socket budget must cut it loose.
  FailPoints::Instance().Sleep("server:write", std::chrono::milliseconds(2000));
  auto client = Client::Connect("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(client.ok());
  Response response;
  Request request = SearchRequest();
  request.deadline_ms = 100;
  const auto start = std::chrono::steady_clock::now();
  const Status st = client->Call(std::move(request), &response);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  FailPoints::Instance().Disable("server:write");
}

TEST_F(RouterFaultTest, InjectedShardWriteStallDegradesRoutedAnswer) {
  Router router = MakeRouter();
  EXPECT_FALSE(router.Dispatch(SearchRequest()).degraded);

  // Every shard response now stalls 2s on the wire; with a 300ms budget the
  // router must give up on both shards and say so explicitly.
  FailPoints::Instance().Sleep("server:write", std::chrono::milliseconds(2000));
  Request request = SearchRequest();
  request.deadline_ms = 300;
  const Response stalled = router.Dispatch(request);
  EXPECT_EQ(stalled.code, StatusCode::kUnavailable);
  FailPoints::Instance().Disable("server:write");
}

TEST_F(RouterFaultTest, StoppingAShardMidTrafficDegradesNotFails) {
  Router router = MakeRouter();
  const Response before = router.Dispatch(SearchRequest());
  EXPECT_EQ(before.code, StatusCode::kOk);
  EXPECT_FALSE(before.degraded);
  EXPECT_EQ(before.shards.size(), 2u);

  servers_[1]->Stop();  // in-process stand-in for SIGKILLing the shard

  const Response after = router.Dispatch(SearchRequest());
  EXPECT_EQ(after.code, StatusCode::kOk);
  EXPECT_TRUE(after.degraded);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.shards[0].shard, 0);
  EXPECT_EQ(after.total_shards, 2);
  EXPECT_GE(router.counters().degraded_responses.load(), 1u);
}

}  // namespace
}  // namespace sss::server
