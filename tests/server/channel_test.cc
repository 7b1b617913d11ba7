// Conformance for the multiplexing shard channel: 64 concurrent fan-outs
// over ONE connection with exact id matching, a severed connection waking
// every waiter, timeouts that do NOT sever (late responses dropped and
// counted), and redial after a sever. The suite name matches the sanitizer
// CI regex (Channel).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "server/channel.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/net.h"
#include "util/random.h"

namespace sss::server {
namespace {

using testing::RandomDataset;

constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz";

// Engine wrapper that stalls inside Search until released (or stopped via
// the context) — same tool as the pipeline suite, for holding requests open
// so concurrency is deterministic instead of probabilistic.
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

bool ReadRequestFrame(int fd, Request* out) {
  uint8_t header[kRequestHeaderBytes];
  auto got = net::ReadFull(fd, header, sizeof(header));
  if (!got.ok() || *got != sizeof(header)) return false;
  uint32_t query_len = 0;
  if (!DecodeRequestHeader(header, ProtocolLimits(), out, &query_len).ok()) {
    return false;
  }
  out->query.assign(query_len, '\0');
  if (query_len > 0) {
    auto body = net::ReadFull(fd, out->query.data(), query_len);
    if (!body.ok() || *body != query_len) return false;
  }
  return true;
}

void WriteOkResponse(int fd, uint64_t request_id) {
  Response response;
  response.request_id = request_id;
  response.matches = {3, 7};
  std::string frame;
  EncodeResponse(response, &frame);
  net::WriteFull(fd, frame.data(), frame.size());
}

// A scripted peer: accepts connections serially and hands each to the
// handler. Lets tests play misbehaving shards (never answer, answer late,
// close mid-pipeline) that a real Server would refuse to be.
class FakeShard {
 public:
  using ConnHandler = std::function<void(net::Socket)>;

  explicit FakeShard(ConnHandler handler) : handler_(std::move(handler)) {
    auto listener = net::ListenTcp("127.0.0.1", 0, 16);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    auto port = net::LocalPort(listener_.fd());
    EXPECT_TRUE(port.ok());
    port_ = *port;
    acceptor_ = std::thread([this] {
      for (;;) {
        auto conn = net::Accept(listener_.fd());
        if (!conn.ok()) return;
        handler_(std::move(*conn));
      }
    });
  }

  ~FakeShard() {
    // shutdown() unblocks the acceptor's pending Accept without touching
    // the Socket's fd value; the close itself (which overwrites the fd)
    // must wait until the thread is joined or it races the fd() read.
    net::ShutdownBoth(listener_.fd());
    acceptor_.join();
    listener_.Close();
  }

  uint16_t port() const { return port_; }

 private:
  ConnHandler handler_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
};

class ChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(0xC4A7);
    dataset_ = RandomDataset(&rng, kAlpha, 300, 3, 12);
    auto scan = MakeSearcher(EngineKind::kSequentialScan, dataset_);
    ASSERT_TRUE(scan.ok());
    scan_ = std::move(*scan);
  }

  Dataset dataset_{"empty", AlphabetKind::kGeneric};
  std::unique_ptr<Searcher> scan_;
};

// --------------------------------------------------------------------------
// 64 concurrent Call()s — every one reusing the SAME caller request id, the
// way concurrent Dispatch() fan-outs do — multiplex over one connection.
// Each caller gets exactly its own answer back under its own id, the server
// accepts exactly one connection, and all but the first-registered call
// observe themselves sharing the channel.
// --------------------------------------------------------------------------
TEST_F(ChannelTest, SixtyFourConcurrentCallsMultiplexOverOneConnection) {
  constexpr size_t kCallers = 64;
  GatedSearcher gated(scan_.get());
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.max_inflight = kCallers * 2;
  EngineHost host(std::vector<EngineSpec>{});
  ASSERT_TRUE(testing::PublishEngine(&host, &gated).ok());
  Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());

  Xoshiro256 rng(0x64CA);
  std::vector<std::string> queries;
  size_t total_request_bytes = 0;
  for (size_t t = 0; t < kCallers; ++t) {
    queries.push_back(testing::RandomString(&rng, kAlpha, 3, 10));
    total_request_bytes += kRequestHeaderBytes + queries.back().size();
  }

  Channel channel("127.0.0.1", server.port());
  std::atomic<size_t> failures{0};
  std::atomic<size_t> multiplexed_count{0};
  std::vector<std::vector<uint32_t>> got_matches(kCallers);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      Request request;
      request.request_id = 99;  // deliberately identical across callers
      request.engine = kAnyEngine;
      request.k = 2;
      request.deadline_ms = 10000;
      request.query = queries[t];
      Response response;
      bool multiplexed = false;
      const Status st = channel.Call(request, &response, &multiplexed);
      if (!st.ok() || response.request_id != 99 ||
          response.code != StatusCode::kOk) {
        failures.fetch_add(1);
        return;
      }
      if (multiplexed) multiplexed_count.fetch_add(1);
      got_matches[t] = response.matches;
    });
  }

  // Every Call registers its waiter before writing, so once the server has
  // read all the request bytes, all 64 are registered and in flight.
  while (server.counters().bytes_in.load() < total_request_bytes) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gated.Release();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  // Exactly one caller found the waiter map empty; the other 63 shared.
  EXPECT_EQ(multiplexed_count.load(), kCallers - 1);
  EXPECT_EQ(server.counters().connections_accepted.load(), 1u);
  EXPECT_EQ(channel.late_responses(), 0u);

  // Content check: each caller got the answer for ITS query.
  auto verify = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(verify.ok());
  for (size_t t = 0; t < kCallers; ++t) {
    Response want;
    ASSERT_TRUE(verify->Search(queries[t], 2, 0, &want).ok());
    EXPECT_EQ(got_matches[t], want.matches) << "caller " << t;
  }
  server.Stop();
}

// --------------------------------------------------------------------------
// A severed connection wakes EVERY waiter with the transport error — no
// caller is left hanging on a connection that can never answer.
// --------------------------------------------------------------------------
TEST_F(ChannelTest, SeveredConnectionWakesAllWaiters) {
  constexpr size_t kCallers = 8;
  FakeShard shard([](net::Socket conn) {
    // Read all eight requests (so every caller has sent), answer none,
    // drop the connection.
    for (size_t i = 0; i < kCallers; ++i) {
      Request request;
      if (!ReadRequestFrame(conn.fd(), &request)) return;
    }
  });

  Channel channel("127.0.0.1", shard.port());
  std::atomic<size_t> io_errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      Request request;
      request.request_id = t;
      request.engine = kAnyEngine;
      request.k = 1;
      request.deadline_ms = 10000;
      request.query = "abc";
      Response response;
      const Status st = channel.Call(request, &response);
      if (st.IsIOError()) io_errors.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(io_errors.load(), kCallers);
  EXPECT_FALSE(channel.connected());
  // The sever woke the waiters — nobody rode out the 10s deadline.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// --------------------------------------------------------------------------
// A caller's timeout must NOT sever: other exchanges keep the connection,
// and the straggler answer is dropped and counted when it finally lands.
// --------------------------------------------------------------------------
TEST_F(ChannelTest, TimeoutKeepsConnectionAndCountsTheLateResponse) {
  FakeShard shard([](net::Socket conn) {
    for (;;) {
      Request request;
      if (!ReadRequestFrame(conn.fd(), &request)) return;
      if (request.query == "late") {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
      WriteOkResponse(conn.fd(), request.request_id);
    }
  });

  Channel channel("127.0.0.1", shard.port());
  Request late;
  late.request_id = 1;
  late.engine = kAnyEngine;
  late.k = 1;
  late.deadline_ms = 50;
  late.query = "late";
  Response response;
  const Status timed_out = channel.Call(late, &response);
  EXPECT_TRUE(timed_out.IsDeadlineExceeded()) << timed_out.ToString();
  EXPECT_TRUE(channel.connected());

  // The same connection still serves the next exchange...
  Request prompt;
  prompt.request_id = 2;
  prompt.engine = kAnyEngine;
  prompt.k = 1;
  prompt.deadline_ms = 5000;
  prompt.query = "now";
  ASSERT_TRUE(channel.Call(prompt, &response).ok());
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.code, StatusCode::kOk);

  // ...and the straggler answer is dropped, not misdelivered.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (channel.late_responses() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(channel.late_responses(), 1u);
}

// --------------------------------------------------------------------------
// After a sever the next Call redials transparently.
// --------------------------------------------------------------------------
TEST_F(ChannelTest, RedialsAfterSeverAndServesAgain) {
  std::atomic<size_t> connections{0};
  FakeShard shard([&](net::Socket conn) {
    if (connections.fetch_add(1) == 0) return;  // first conn: instant close
    for (;;) {
      Request request;
      if (!ReadRequestFrame(conn.fd(), &request)) return;
      WriteOkResponse(conn.fd(), request.request_id);
    }
  });

  Channel channel("127.0.0.1", shard.port());
  Request request;
  request.request_id = 7;
  request.engine = kAnyEngine;
  request.k = 1;
  request.deadline_ms = 5000;
  request.query = "abc";
  Response response;
  const Status first = channel.Call(request, &response);
  EXPECT_FALSE(first.ok());

  ASSERT_TRUE(channel.Call(request, &response).ok());
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(connections.load(), 2u);
}

}  // namespace
}  // namespace sss::server
