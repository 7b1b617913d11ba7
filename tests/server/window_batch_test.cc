// Window-batch conformance for the reactor's batch-native dispatch: a
// pipelined window decoded in one drain runs as ONE Searcher::SearchBatch,
// and that must be invisible to clients — every response byte-identical per
// id to what lock-step calls produce under the kSharded dispatch the server
// runs (differential_test holds the five strategies to each other),
// including windows truncated mid-flight by a deadline. The suite name
// matches the sanitizer CI regex (WindowBatch).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
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

// Engine wrapper: queries starting with '!' stall until the context stops
// them (deadline/cancellation); everything else passes through. Lets a test
// build a window whose queries deterministically split into completed and
// truncated halves.
class StallMarkedSearcher : public Searcher {
 public:
  explicit StallMarkedSearcher(const Searcher* inner) : inner_(inner) {}

  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override {
    if (!query.text.empty() && query.text[0] == '!') {
      while (!ctx.StopRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      out->clear();
      return ctx.StopStatus();
    }
    return inner_->Search(query, ctx, out);
  }

  std::string name() const override { return "stall_" + inner_->name(); }

 private:
  const Searcher* inner_;
};

// Reads one response frame off a raw socket.
bool ReadResponseFrame(int fd, Response* out) {
  uint8_t header[kResponseHeaderBytes];
  auto got = net::ReadFull(fd, header, sizeof(header));
  if (!got.ok() || *got != sizeof(header)) return false;
  uint32_t payload_len = 0;
  if (!DecodeResponseHeader(header, ProtocolLimits(), out, &payload_len)
           .ok()) {
    return false;
  }
  std::string payload(payload_len, '\0');
  if (payload_len > 0) {
    auto body = net::ReadFull(fd, payload.data(), payload_len);
    if (!body.ok() || *body != payload_len) return false;
  }
  return DecodeResponsePayload(payload, out).ok();
}

class WindowBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(0x8A7C);
    dataset_ = RandomDataset(&rng, kAlpha, 300, 3, 12);
    auto scan = MakeSearcher(EngineKind::kSequentialScan, dataset_);
    ASSERT_TRUE(scan.ok());
    scan_ = std::move(*scan);
  }

  std::unique_ptr<Server> StartServer(ServerOptions options,
                                      const Searcher* engine = nullptr) {
    options.host = "127.0.0.1";
    options.port = 0;
    hosts_.push_back(std::make_unique<EngineHost>(std::vector<EngineSpec>{}));
    EXPECT_TRUE(testing::PublishEngine(
                    hosts_.back().get(),
                    engine != nullptr ? engine : scan_.get())
                    .ok());
    auto server = std::make_unique<Server>(options);
    EXPECT_TRUE(server->RegisterHost(hosts_.back().get()).ok());
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  // Writes `window` as one buffer (one drain on the reactor side, barring
  // TCP segmentation) and reads the responses back, keyed by id.
  static bool ExchangeWindow(int fd, const std::vector<Request>& window,
                             std::map<uint64_t, Response>* responses) {
    std::string wire;
    for (const Request& request : window) EncodeRequest(request, &wire);
    if (!net::WriteFull(fd, wire.data(), wire.size()).ok()) return false;
    for (size_t i = 0; i < window.size(); ++i) {
      Response response;
      if (!ReadResponseFrame(fd, &response)) return false;
      (*responses)[response.request_id] = std::move(response);
    }
    return true;
  }

  Dataset dataset_{"empty", AlphabetKind::kGeneric};
  std::unique_ptr<Searcher> scan_;
  std::vector<std::unique_ptr<EngineHost>> hosts_;  // outlive the servers
};

// --------------------------------------------------------------------------
// The core equivalence claim: a depth-8 window dispatched as one batch
// produces, per request id, the byte-identical response frame a lock-step
// client gets.
// --------------------------------------------------------------------------
TEST_F(WindowBatchTest, WindowBatchMatchesLockStep) {
  constexpr size_t kDepth = 8;
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  auto server = StartServer(options);
  auto lockstep = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(lockstep.ok());

  Xoshiro256 rng(0xBEEF);
  // Retry until at least one window actually formed: the 8 frames go out
  // in one write, but TCP may (rarely) split them across drains.
  bool batched = false;
  for (int round = 0; round < 20 && !batched; ++round) {
    std::vector<Request> window;
    std::vector<std::string> queries;
    for (size_t i = 0; i < kDepth; ++i) {
      queries.push_back(testing::RandomString(&rng, kAlpha, 3, 10));
      Request request;
      request.request_id = 100 + i;
      request.engine = kAnyEngine;
      request.k = 2;
      request.query = queries.back();
      window.push_back(std::move(request));
    }
    auto sock = net::ConnectTcp("127.0.0.1", server->port());
    ASSERT_TRUE(sock.ok());
    std::map<uint64_t, Response> responses;
    ASSERT_TRUE(ExchangeWindow(sock->fd(), window, &responses));
    ASSERT_EQ(responses.size(), kDepth);

    for (size_t i = 0; i < kDepth; ++i) {
      ASSERT_TRUE(responses.count(100 + i)) << "id " << 100 + i;
      const Response& got = responses[100 + i];
      EXPECT_EQ(got.code, StatusCode::kOk);
      Response want;
      ASSERT_TRUE(lockstep->Search(queries[i], 2, 0, &want).ok());
      want.request_id = got.request_id;
      std::string got_frame;
      std::string want_frame;
      EncodeResponse(got, &got_frame);
      EncodeResponse(want, &want_frame);
      EXPECT_EQ(got_frame, want_frame) << "query " << queries[i];
    }
    batched = sink.Collected().server_windows_batched > 0;
  }
  EXPECT_TRUE(batched) << "no window ever formed";
  const SearchStats collected = sink.Collected();
  EXPECT_GE(collected.server_window_depth_sum,
            2 * collected.server_windows_batched);
}

// --------------------------------------------------------------------------
// Deadline truncation mid-window: stalled queries come back kCancelled,
// while the rest of the SAME window still completes with lock-step-identical
// answers — per-request verdicts survive the shared batch dispatch. The
// connection remains usable afterwards.
// --------------------------------------------------------------------------
TEST_F(WindowBatchTest, MidWindowDeadlineTruncationKeepsPerRequestVerdicts) {
  constexpr size_t kDepth = 8;
  StallMarkedSearcher stalled(scan_.get());
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  // A window runs one lane per query, so the stalled half cannot starve
  // the rest.
  auto server = StartServer(options, &stalled);
  auto lockstep = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(lockstep.ok());

  Xoshiro256 rng(0xD00D);
  std::vector<Request> window;
  std::vector<std::string> queries;
  for (size_t i = 0; i < kDepth; ++i) {
    // Odd indices stall until the deadline; even ones answer normally.
    queries.push_back(i % 2 == 1
                          ? "!stall"
                          : testing::RandomString(&rng, kAlpha, 3, 10));
    Request request;
    request.request_id = 200 + i;
    request.engine = kAnyEngine;
    request.k = 2;
    request.deadline_ms = 80;
    request.query = queries.back();
    window.push_back(std::move(request));
  }
  auto sock = net::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  std::map<uint64_t, Response> responses;
  ASSERT_TRUE(ExchangeWindow(sock->fd(), window, &responses));
  ASSERT_EQ(responses.size(), kDepth);

  for (size_t i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(responses.count(200 + i));
    const Response& got = responses[200 + i];
    if (i % 2 == 1) {
      EXPECT_EQ(got.code, StatusCode::kCancelled) << "id " << 200 + i;
      EXPECT_TRUE(got.matches.empty());
    } else {
      EXPECT_EQ(got.code, StatusCode::kOk) << "id " << 200 + i;
      Response want;
      ASSERT_TRUE(lockstep->Search(queries[i], 2, 0, &want).ok());
      want.request_id = got.request_id;
      std::string got_frame;
      std::string want_frame;
      EncodeResponse(got, &got_frame);
      EncodeResponse(want, &want_frame);
      EXPECT_EQ(got_frame, want_frame);
    }
  }

  // The connection the truncated window rode is still healthy.
  std::map<uint64_t, Response> after;
  std::vector<Request> second;
  for (size_t i = 0; i < 2; ++i) {
    Request request;
    request.request_id = 300 + i;
    request.engine = kAnyEngine;
    request.k = 1;
    request.query = "abc";
    second.push_back(std::move(request));
  }
  ASSERT_TRUE(ExchangeWindow(sock->fd(), second, &after));
  EXPECT_EQ(after[300].code, StatusCode::kOk);
  EXPECT_EQ(after[301].code, StatusCode::kOk);
}

// --------------------------------------------------------------------------
// The stats funnel: singleton dispatches count in neither window counter,
// and under real pipelined load the depth sum covers every batched request
// at least twice per window (min window is 2) without ever exceeding the
// request total.
// --------------------------------------------------------------------------
TEST_F(WindowBatchTest, SingletonRequestsCountInNeitherWindowCounter) {
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  auto server = StartServer(options);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    Response response;
    ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kOk);
  }
  const SearchStats collected = sink.Collected();
  EXPECT_EQ(collected.server_windows_batched, 0u);
  EXPECT_EQ(collected.server_window_depth_sum, 0u);
}

// --------------------------------------------------------------------------
// One search path: a lone lock-step request runs through the same
// SearchBatch window as a pipelined one, under the same kAuto kernel tier —
// the batch driver labels its tier, and every verified candidate is counted
// either by a lane kernel or as a lane fallback.
// --------------------------------------------------------------------------
TEST_F(WindowBatchTest, LoneRequestsRunTheWindowKernelTier) {
  const KernelTier tier = ResolveKernelTier(KernelTierChoice::kAuto);
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  auto server = StartServer(options);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (const char* query : {"abc", "hello", "zzzzzzzz"}) {
    sink.Reset();
    Response response;
    ASSERT_TRUE(client->Search(query, 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kOk);
    const SearchStats collected = sink.Collected();
    EXPECT_EQ(collected.dispatch_tier, static_cast<uint64_t>(tier)) << query;
    EXPECT_GT(collected.verify_calls, 0u) << query;
    if (tier != KernelTier::kScalar) {
      EXPECT_EQ(collected.simd_lanes_verified + collected.simd_fallback_pairs,
                collected.verify_calls)
          << query;
    }
  }
}

TEST_F(WindowBatchTest, WindowFunnelInvariantsHoldUnderPipelinedLoad) {
  constexpr size_t kConnections = 8;
  constexpr size_t kDepth = 8;
  constexpr size_t kRounds = 5;
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  options.max_inflight = kConnections * kDepth;
  auto server = StartServer(options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Xoshiro256 rng(0xF00D + t);
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kDepth; ++i) {
          Request request;
          request.engine = kAnyEngine;
          request.k = 1;
          request.query = testing::RandomString(&rng, kAlpha, 3, 10);
          if (!client->Send(std::move(request)).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
        for (size_t i = 0; i < kDepth; ++i) {
          Response response;
          if (!client->Receive(&response).ok() ||
              response.code != StatusCode::kOk) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  const size_t total = kConnections * kDepth * kRounds;
  EXPECT_EQ(server->counters().requests_ok.load(), total);
  const SearchStats collected = sink.Collected();
  // Every batched window holds at least two requests, and no request is in
  // more than one window.
  EXPECT_GE(collected.server_window_depth_sum,
            2 * collected.server_windows_batched);
  EXPECT_LE(collected.server_window_depth_sum, total);
}

}  // namespace
}  // namespace sss::server
