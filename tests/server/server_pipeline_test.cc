// Pipelining conformance for the epoll reactor server: N requests in
// flight on one connection, out-of-order responses matched by id, drain
// and malformed-frame interactions, the slowloris idle timeout, and
// bytes_out accounting pinned to the true encoded frame size. The 64x8
// load test at the bottom doubles as the TSan target for the reactor
// (suite name matches the sanitizer CI regex).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
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

// The reactor bumps ServerCounters::bytes_out *after* the write syscall
// returns, so a client can hold the full response before the increment
// lands. Bounded wait for the counter to catch up before asserting on it.
void WaitForBytesOut(const Server& server, uint64_t expected) {
  for (int spin = 0;
       spin < 2000 && server.counters().bytes_out.load() < expected; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Engine wrapper that stalls inside Search until released (or stopped via
// the context) — same tool as server_test.cc, for holding requests open.
class GatedSearcher : public Searcher {
 public:
  explicit GatedSearcher(const Searcher* inner) : inner_(inner) {}

  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override {
    entered_.fetch_add(1, std::memory_order_acq_rel);
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
  size_t entered() const { return entered_.load(std::memory_order_acquire); }
  void WaitForEntered(size_t n) const {
    while (entered() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  const Searcher* inner_;
  mutable std::atomic<size_t> entered_{0};
  std::atomic<bool> released_{false};
};

class ServerPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(0x91BE);
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

  Dataset dataset_{"empty", AlphabetKind::kGeneric};
  std::unique_ptr<Searcher> scan_;
  std::vector<std::unique_ptr<EngineHost>> hosts_;  // outlive the servers
};

// --------------------------------------------------------------------------
// Out-of-order delivery with exact id matching, fully deterministic: every
// request blocks in the handler behind its own gate, and the gates open in
// reverse send order — one at a time, each only after the previous
// response arrived. A handler still inside its gate cannot have produced a
// response frame, so each Receive() can only ever see one specific id.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, OutOfOrderResponsesMatchIdsExactly) {
  constexpr size_t kDepth = 4;
  std::atomic<size_t> arrived{0};
  std::atomic<bool> release[kDepth] = {};

  ServerOptions options;
  options.host = "127.0.0.1";
  options.worker_threads = kDepth;  // every request gets a worker
  Server server(options);
  ASSERT_TRUE(server
                  .RegisterHandler([&](const Request& request) {
                    const size_t i = std::stoul(request.query);
                    arrived.fetch_add(1, std::memory_order_acq_rel);
                    while (!release[i].load(std::memory_order_acquire)) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                    Response response;
                    response.generation = i + 1;  // payload rides with the id
                    return response;
                  })
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::map<uint64_t, size_t> sent;  // request id -> index
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kDepth; ++i) {
    Request request;
    request.engine = kAnyEngine;
    request.k = 0;
    request.query = std::to_string(i);
    auto id = client->Send(std::move(request));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(sent.emplace(*id, i).second);
    ids.push_back(*id);
  }
  EXPECT_EQ(client->outstanding(), kDepth);
  while (arrived.load(std::memory_order_acquire) < kDepth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Open the gates in reverse send order; each Receive() must deliver
  // exactly the one request whose gate is open.
  for (size_t n = 0; n < kDepth; ++n) {
    const size_t expected_index = kDepth - 1 - n;
    release[expected_index].store(true, std::memory_order_release);
    Response response;
    ASSERT_TRUE(client->Receive(&response).ok());
    EXPECT_EQ(response.request_id, ids[expected_index]);
    EXPECT_EQ(response.generation, expected_index + 1);
    EXPECT_EQ(response.code, StatusCode::kOk);
  }
  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(server.counters().requests_ok.load(), kDepth);
  server.Stop();
}

// --------------------------------------------------------------------------
// Pipelined answers against the real engine agree with lock-step answers,
// and every exchange completes, at each pipeline depth from 1 to 32.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, PipelinedAnswersMatchLockStepAnswers) {
  auto server = StartServer(ServerOptions());
  auto pipelined = Client::Connect("127.0.0.1", server->port());
  auto lockstep = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(pipelined.ok());
  ASSERT_TRUE(lockstep.ok());

  Xoshiro256 rng(0xF1FE);
  size_t total = 0;
  for (const size_t depth : {1, 2, 8, 16, 32}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    std::vector<std::string> queries;
    std::map<uint64_t, size_t> sent;
    for (size_t i = 0; i < depth; ++i) {
      queries.push_back(testing::RandomString(&rng, kAlpha, 3, 10));
      Request request;
      request.engine = kAnyEngine;
      request.k = 2;
      request.query = queries.back();
      auto id = pipelined->Send(std::move(request));
      ASSERT_TRUE(id.ok());
      sent.emplace(*id, i);
    }
    for (size_t n = 0; n < depth; ++n) {
      Response got;
      ASSERT_TRUE(pipelined->Receive(&got).ok());
      EXPECT_EQ(got.code, StatusCode::kOk);
      ASSERT_EQ(sent.count(got.request_id), 1u);
      Response want;
      ASSERT_TRUE(
          lockstep->Search(queries[sent[got.request_id]], 2, 0, &want).ok());
      EXPECT_EQ(got.matches, want.matches);
      sent.erase(got.request_id);  // each id is answered exactly once
    }
    EXPECT_EQ(pipelined->outstanding(), 0u);
    total += 2 * depth;  // the pipelined request and its lock-step twin
  }
  EXPECT_EQ(server->counters().requests_ok.load(), total);
}

// --------------------------------------------------------------------------
// Mixing the APIs: a lock-step Call() while pipelined requests are still
// outstanding is refused with kFailedPrecondition — a distinct, testable
// verdict ("drain first"), not the kInvalid that marks a broken request.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, CallWhilePipelinedOutstandingIsFailedPrecondition) {
  auto server = StartServer(ServerOptions());
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  Request pipelined;
  pipelined.engine = kAnyEngine;
  pipelined.k = 1;
  pipelined.query = "abc";
  ASSERT_TRUE(client->Send(std::move(pipelined)).ok());

  Request blocking;
  blocking.engine = kAnyEngine;
  blocking.k = 1;
  blocking.query = "abc";
  Response response;
  const Status refused = client->Call(std::move(blocking), &response);
  EXPECT_TRUE(refused.IsFailedPrecondition()) << refused.ToString();
  EXPECT_FALSE(refused.IsInvalid());

  // Draining restores the blocking API on the same connection.
  ASSERT_TRUE(client->Receive(&response).ok());
  EXPECT_EQ(client->outstanding(), 0u);
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
}

// --------------------------------------------------------------------------
// Drain race: Stop() while a full pipeline is mid-search. Every dispatched
// request must answer and flush before the connection closes.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, DrainAnswersEveryPipelinedInflightRequest) {
  constexpr size_t kDepth = 8;
  GatedSearcher gated(scan_.get());
  ServerOptions options;
  options.worker_threads = kDepth;
  auto server = StartServer(options, &gated);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kDepth; ++i) {
    Request request;
    request.engine = kAnyEngine;
    request.k = 1;
    request.query = "abc";
    auto id = client->Send(std::move(request));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  gated.WaitForEntered(kDepth);  // all 8 executing concurrently

  // Stop() must block until all 8 responses are written out.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gated.Release();
  });
  server->Stop();
  releaser.join();

  for (size_t n = 0; n < kDepth; ++n) {
    Response response;
    ASSERT_TRUE(client->Receive(&response).ok()) << "response " << n;
    EXPECT_EQ(response.code, StatusCode::kOk);
  }
  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(server->counters().requests_ok.load(), kDepth);
}

// --------------------------------------------------------------------------
// A malformed frame mid-pipeline: the bad request gets an error frame, the
// connection stops reading, and the requests dispatched before it still
// answer — nothing in flight is lost.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, MalformedFrameMidPipelineKeepsEarlierResponses) {
  constexpr size_t kInflight = 2;
  GatedSearcher gated(scan_.get());
  ServerOptions options;
  options.worker_threads = 4;
  auto server = StartServer(options, &gated);

  auto sock = net::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());

  // Two valid frames, then 32 bytes of garbage, in one write.
  std::string wire;
  for (size_t i = 0; i < kInflight; ++i) {
    Request request;
    request.request_id = i + 1;
    request.engine = kAnyEngine;
    request.k = 1;
    request.query = "abc";
    EncodeRequest(request, &wire);
  }
  wire.append(kRequestHeaderBytes, 'Z');
  ASSERT_TRUE(net::WriteFull(sock->fd(), wire.data(), wire.size()).ok());

  gated.WaitForEntered(kInflight);
  gated.Release();

  // Read everything until the server closes the connection.
  std::string replies;
  char buf[4096];
  for (;;) {
    auto got = net::ReadFull(sock->fd(), buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    replies.append(buf, *got);
    if (*got < sizeof(buf)) break;
  }

  // Walk the reply stream frame by frame.
  std::map<uint64_t, StatusCode> seen;
  size_t frames = 0;
  size_t off = 0;
  while (off + kResponseHeaderBytes <= replies.size()) {
    Response response;
    uint32_t payload_len = 0;
    ASSERT_TRUE(DecodeResponseHeader(
                    reinterpret_cast<const uint8_t*>(replies.data() + off),
                    ProtocolLimits(), &response, &payload_len)
                    .ok());
    ASSERT_LE(off + kResponseHeaderBytes + payload_len, replies.size());
    ASSERT_TRUE(DecodeResponsePayload(
                    std::string_view(replies)
                        .substr(off + kResponseHeaderBytes, payload_len),
                    &response)
                    .ok());
    off += kResponseHeaderBytes + payload_len;
    ++frames;
    seen[response.request_id] = response.code;
  }
  EXPECT_EQ(off, replies.size());
  EXPECT_EQ(frames, kInflight + 1);  // 2 answers + 1 error frame
  // Both dispatched requests answered OK despite the garbage behind them.
  EXPECT_EQ(seen[1], StatusCode::kOk);
  EXPECT_EQ(seen[2], StatusCode::kOk);
  // And exactly one kInvalid error frame for the unparseable garbage.
  size_t invalid = 0;
  for (const auto& [id, code] : seen) {
    if (code == StatusCode::kInvalid) ++invalid;
  }
  EXPECT_EQ(invalid, 1u);
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);

  // The server is unharmed.
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Response response;
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
}

// --------------------------------------------------------------------------
// Slowloris regression: a peer that starts a frame and stalls is reclaimed
// after idle_timeout_ms and counted; a peer idle *between* frames is not.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, StalledPartialFrameIsReclaimedIdleConnIsNot) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  auto server = StartServer(options);

  // Connection A: idle at a frame boundary (no bytes sent at all).
  auto idle = net::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(idle.ok());

  // Connection B: half a header, then silence.
  auto stalled = net::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE(net::WriteFull(stalled->fd(), "SSSQ\x03", 5).ok());

  // B gets reclaimed and counted...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->counters().idle_timeouts.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->counters().idle_timeouts.load(), 1u);
  char byte = 0;
  auto got = net::ReadFull(stalled->fd(), &byte, 1);
  EXPECT_TRUE(got.ok() && *got == 0) << "expected EOF from the reclaimed conn";

  // ...while A, long past the timeout by now, still serves a request.
  Request request;
  request.request_id = 7;
  request.engine = kAnyEngine;
  request.k = 1;
  request.query = "abc";
  std::string frame;
  EncodeRequest(request, &frame);
  ASSERT_TRUE(net::WriteFull(idle->fd(), frame.data(), frame.size()).ok());
  uint8_t header[kResponseHeaderBytes];
  auto hdr = net::ReadFull(idle->fd(), header, sizeof(header));
  ASSERT_TRUE(hdr.ok());
  ASSERT_EQ(*hdr, sizeof(header));
  Response response;
  uint32_t payload_len = 0;
  ASSERT_TRUE(
      DecodeResponseHeader(header, ProtocolLimits(), &response, &payload_len)
          .ok());
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(server->counters().idle_timeouts.load(), 1u);
}

// --------------------------------------------------------------------------
// bytes_out accounting == true encoded frame size, on both backends. The
// handler path returns a degraded shard-set response — the exact shape
// whose hand-computed trailer math used to drift from EncodeResponse.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, BytesOutMatchesEncodedFrameForShardSetResponses) {
  StatsSink sink;
  ServerOptions options;
  options.host = "127.0.0.1";
  options.stats = &sink;
  Server server(options);
  ASSERT_TRUE(server
                  .RegisterHandler([](const Request&) {
                    Response response;
                    response.degraded = true;
                    response.generation = 41;
                    response.shards = {{0, 41}, {2, 43}, {5, 44}};
                    response.total_shards = 6;
                    response.matches = {3, 9, 27};
                    return response;
                  })
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Response response;
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  ASSERT_EQ(response.code, StatusCode::kOk);
  ASSERT_EQ(response.shards.size(), 3u);
  EXPECT_TRUE(response.degraded);

  // Re-encode the decoded response: its wire size is the ground truth the
  // counter must match (and the server-wide byte counter agrees).
  std::string frame;
  EncodeResponse(response, &frame);
  const SearchStats collected = sink.Collected();
  EXPECT_EQ(collected.server_bytes_out, frame.size());
  WaitForBytesOut(server, frame.size());
  EXPECT_EQ(server.counters().bytes_out.load(), frame.size());
  server.Stop();
}

TEST_F(ServerPipelineTest, BytesOutMatchesEncodedFrameOnTheBuiltInPath) {
  StatsSink sink;
  ServerOptions options;
  options.stats = &sink;
  auto server = StartServer(options);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  Response response;
  ASSERT_TRUE(client->Search("abc", 2, 0, &response).ok());
  ASSERT_EQ(response.code, StatusCode::kOk);
  std::string frame;
  EncodeResponse(response, &frame);
  const SearchStats collected = sink.Collected();
  EXPECT_EQ(collected.server_bytes_out, frame.size());
  WaitForBytesOut(*server, frame.size());
  EXPECT_EQ(server->counters().bytes_out.load(), frame.size());
}

// --------------------------------------------------------------------------
// The TSan load target: 64 connections, pipeline depth 8, real searches.
// Every response id-matched, zero transport errors, exact counter totals.
// --------------------------------------------------------------------------
TEST_F(ServerPipelineTest, Load64ConnectionsBy8Deep) {
  constexpr size_t kConnections = 64;
  constexpr size_t kDepth = 8;
  constexpr size_t kRounds = 10;
  ServerOptions options;
  options.max_inflight = kConnections * kDepth;  // no shedding in this test
  auto server = StartServer(options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Xoshiro256 rng(0xC0DE + t);
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
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(server->counters().requests_ok.load(),
            kConnections * kDepth * kRounds);
  EXPECT_EQ(server->counters().requests_shed.load(), 0u);
  EXPECT_EQ(server->counters().protocol_errors.load(), 0u);
}

}  // namespace
}  // namespace sss::server
