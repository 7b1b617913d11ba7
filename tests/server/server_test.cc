#include "server/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "server/client.h"
#include "server/protocol.h"
#include "test_util.h"
#include "util/net.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace sss::server {
namespace {

using testing::RandomDataset;

constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz";

// Wraps an engine and stalls inside Search until released (or until the
// context stops it), so tests can hold the admission window open or force a
// deadline deterministically — no timing-sensitive sleeps on the assert
// path.
class SlowSearcher : public Searcher {
 public:
  explicit SlowSearcher(const Searcher* inner) : inner_(inner) {}

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

  std::string name() const override { return "slow_" + inner_->name(); }

  void Release() { released_.store(true, std::memory_order_release); }
  size_t entered() const { return entered_.load(std::memory_order_acquire); }

  /// Blocks until `n` searches are inside the stall loop.
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

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(0x5E12);
    dataset_ = RandomDataset(&rng, kAlpha, 400, 3, 12);
    auto scan = MakeSearcher(EngineKind::kSequentialScan, dataset_);
    ASSERT_TRUE(scan.ok());
    scan_ = std::move(*scan);
  }

  // Starts a server over scan_ (or `engine` if given) on an ephemeral port,
  // served from a host of its own.
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

TEST_F(ServerTest, StartStopIsClean) {
  auto server = StartServer(ServerOptions());
  EXPECT_TRUE(server->running());
  EXPECT_GT(server->port(), 0);
  server->Stop();
  EXPECT_FALSE(server->running());
  server->Stop();  // idempotent
}

TEST_F(ServerTest, StartWithoutEngineFails) {
  Server server{ServerOptions()};
  EXPECT_TRUE(server.Start().IsInvalid());
}

TEST_F(ServerTest, SingleRequestMatchesInProcessSearch) {
  auto server = StartServer(ServerOptions());
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  const Query q{std::string(dataset_.View(17)), 2};
  Response response;
  ASSERT_TRUE(client->Search(q.text, 2, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.matches, scan_->Search(q));
  EXPECT_FALSE(response.matches.empty());  // the string itself matches
}

TEST_F(ServerTest, UnknownEngineIdIsRejectedNotFatal) {
  auto server = StartServer(ServerOptions());
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  Request request;
  request.engine = 200;  // nothing registered there
  request.k = 1;
  request.query = "abc";
  Response response;
  ASSERT_TRUE(client->Call(request, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalid);

  // A retired engine's id (5 named the packed DNA scan) is just as unknown.
  request.engine = 5;
  ASSERT_TRUE(client->Call(request, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalid);

  // The connection (and server) survive the rejection.
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
}

// The acceptance-criteria run: concurrent clients, every response matched
// to its request by id, no losses, no duplicates, payloads identical to the
// in-process engine.
TEST_F(ServerTest, Concurrency64ExactIdMatching) {
  constexpr size_t kThreads = 64;
  constexpr size_t kPerThread = 16;
  auto server = StartServer(ServerOptions());

  std::atomic<size_t> failures{0};
  std::vector<std::set<uint64_t>> answered(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t string_id = (t * kPerThread + i) % dataset_.size();
        Request request;
        // Globally unique id; Client::Call checks the echo.
        request.request_id = t * 1000 + i + 1;
        request.k = 1;
        request.query = std::string(dataset_.View(string_id));
        Response response;
        if (!client->Call(request, &response).ok() ||
            response.code != StatusCode::kOk ||
            response.matches !=
                scan_->Search(Query{request.query, 1})) {
          failures.fetch_add(1);
          return;
        }
        answered[t].insert(response.request_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answered[t].size(), kPerThread) << "thread " << t;
  }
  EXPECT_EQ(server->counters().requests_ok.load(), kThreads * kPerThread);
}

TEST_F(ServerTest, OverloadShedsWithBoundedInflight) {
  SlowSearcher slow(scan_.get());
  ServerOptions options;
  options.max_inflight = 2;
  auto server = StartServer(options, &slow);

  // Fill the admission window with two stalled searches.
  std::vector<std::thread> stuck;
  std::atomic<size_t> stuck_ok{0};
  for (int i = 0; i < 2; ++i) {
    stuck.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return;
      Response response;
      if (client->Search("abc", 1, 0, &response).ok() &&
          response.code == StatusCode::kOk) {
        stuck_ok.fetch_add(1);
      }
    });
  }
  slow.WaitForEntered(2);
  EXPECT_EQ(server->inflight(), 2u);

  // Everything above the watermark is shed immediately as kUnavailable.
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    Response response;
    ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kUnavailable);
    EXPECT_LE(server->inflight(), 2u);
  }
  EXPECT_EQ(server->counters().requests_shed.load(), 5u);

  // Release the window; the stalled requests complete normally.
  slow.Release();
  for (std::thread& t : stuck) t.join();
  EXPECT_EQ(stuck_ok.load(), 2u);

  Response response;
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
}

TEST_F(ServerTest, DeadlineCancelsLongSearch) {
  SlowSearcher slow(scan_.get());  // never released: only a stop ends it
  auto server = StartServer(ServerOptions(), &slow);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  Response response;
  ASSERT_TRUE(client->Search("abc", 1, /*deadline_ms=*/30, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kCancelled);
  EXPECT_TRUE(response.matches.empty());
  EXPECT_EQ(server->counters().requests_cancelled.load(), 1u);
}

TEST_F(ServerTest, ServerDeadlineCapAppliesWhenRequestHasNone) {
  SlowSearcher slow(scan_.get());
  ServerOptions options;
  options.max_deadline_ms = 30;
  auto server = StartServer(options, &slow);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  Response response;
  ASSERT_TRUE(client->Search("abc", 1, /*deadline_ms=*/0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kCancelled);
}

TEST_F(ServerTest, GracefulDrainCompletesInflightRequest) {
  SlowSearcher slow(scan_.get());
  auto server = StartServer(ServerOptions(), &slow);

  std::atomic<bool> got_ok{false};
  std::thread inflight([&] {
    auto client = Client::Connect("127.0.0.1", server->port());
    if (!client.ok()) return;
    Response response;
    if (client->Search("abc", 1, 0, &response).ok() &&
        response.code == StatusCode::kOk) {
      got_ok.store(true);
    }
  });
  slow.WaitForEntered(1);

  // Drain while the request is mid-search. Stop() must not return before
  // the handler finished, and the handler must still deliver the response.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow.Release();
  });
  server->Stop();
  releaser.join();
  inflight.join();
  EXPECT_TRUE(got_ok.load());
  EXPECT_EQ(server->counters().requests_ok.load(), 1u);

  // New connections are refused after the drain.
  auto late = Client::Connect("127.0.0.1", server->port());
  EXPECT_FALSE(late.ok());
}

TEST_F(ServerTest, CancelInflightHardStopsSearches) {
  SlowSearcher slow(scan_.get());  // never released
  auto server = StartServer(ServerOptions(), &slow);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  std::thread canceller([&] {
    slow.WaitForEntered(1);
    server->CancelInflight();
  });
  Response response;
  ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
  canceller.join();
  EXPECT_EQ(response.code, StatusCode::kCancelled);
}

// ---- Robustness against hostile/broken peers, over real sockets. ----

class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    auto sock = net::ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(sock.ok());
    if (sock.ok()) socket_ = std::move(*sock);
  }

  void Send(std::string_view bytes) {
    ASSERT_TRUE(
        net::WriteFull(socket_.fd(), bytes.data(), bytes.size()).ok());
  }

  /// Reads until EOF; returns everything the server sent. Half-closes the
  /// write side first so a server blocked mid-frame sees EOF instead of
  /// deadlocking against our read.
  std::string Drain() {
    (void)net::ShutdownWrite(socket_.fd());
    std::string out;
    char buf[4096];
    for (;;) {
      auto got = net::ReadFull(socket_.fd(), buf, sizeof(buf));
      if (!got.ok() || *got == 0) break;
      out.append(buf, *got);
      if (*got < sizeof(buf)) break;  // EOF inside this chunk
    }
    return out;
  }

  void Close() { socket_.Close(); }

 private:
  net::Socket socket_;
};

class ServerRobustnessTest : public ServerTest {
 protected:
  // After each hostile exchange the server must still answer a clean
  // request on a fresh connection.
  void ExpectStillServing(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    Response response;
    ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kOk);
  }

  // A vanished peer's EOF is counted when the reactor reads it, and on a
  // loaded box that can come after a fresh connection's whole exchange.
  // Stop() discards unread input, so wait (bounded) for the count first.
  static void WaitForProtocolError(const Server& server) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.counters().protocol_errors.load() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST_F(ServerRobustnessTest, GarbageMagicGetsErrorFrameThenClose) {
  auto server = StartServer(ServerOptions());
  RawConnection raw(server->port());
  raw.Send(std::string(kRequestHeaderBytes, 'Z'));
  const std::string reply = raw.Drain();

  // The reply, if any, is a well-formed kInvalid response frame.
  ASSERT_GE(reply.size(), kResponseHeaderBytes);
  Response response;
  ASSERT_TRUE(DecodeResponse(reply, ProtocolLimits(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalid);
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
  ExpectStillServing(*server);
}

TEST_F(ServerRobustnessTest, TruncatedHeaderDisconnectIsHandled) {
  auto server = StartServer(ServerOptions());
  {
    RawConnection raw(server->port());
    raw.Send("SS");  // 2 of 32 header bytes, then vanish
    raw.Close();
  }
  // Reconnecting proves the handler thread didn't take the server down.
  ExpectStillServing(*server);
  WaitForProtocolError(*server);
  server->Stop();
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
}

TEST_F(ServerRobustnessTest, MidFrameDisconnectIsHandled) {
  auto server = StartServer(ServerOptions());
  {
    Request request;
    request.request_id = 5;
    request.k = 1;
    request.query = "this query never fully arrives";
    std::string frame;
    EncodeRequest(request, &frame);
    RawConnection raw(server->port());
    raw.Send(std::string_view(frame).substr(0, kRequestHeaderBytes + 4));
    raw.Close();
  }
  ExpectStillServing(*server);
  WaitForProtocolError(*server);
  server->Stop();
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
}

TEST_F(ServerRobustnessTest, HugeAnnouncedQueryIsRejectedBeforeAllocation) {
  auto server = StartServer(ServerOptions());
  RawConnection raw(server->port());
  Request request;
  request.request_id = 6;
  request.k = 1;
  std::string frame;
  EncodeRequest(request, &frame);
  // Announce a 4 GiB query without sending it.
  frame[24] = static_cast<char>(0xFF);
  frame[25] = static_cast<char>(0xFF);
  frame[26] = static_cast<char>(0xFF);
  frame[27] = static_cast<char>(0xFF);
  raw.Send(frame);
  const std::string reply = raw.Drain();
  ASSERT_GE(reply.size(), kResponseHeaderBytes);
  Response response;
  ASSERT_TRUE(DecodeResponse(reply, ProtocolLimits(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalid);
  EXPECT_EQ(response.request_id, 6u);  // id recovered from the bad header
  ExpectStillServing(*server);
}

// ---------------------------------------------------------------------------
// EngineHost-backed serving: generation ids in responses, admin frames, and
// zero-downtime reload under concurrent load.

class ServerHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sss_server_host_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    data_path_ = (dir_ / "data.txt").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes `n` copies of "aaaa": a k=0 "aaaa" query matches all n, so the
  // match count identifies the generation that answered.
  void WriteUniformDataset(size_t n) {
    std::ofstream out(data_path_, std::ios::trunc);
    for (size_t i = 0; i < n; ++i) out << "aaaa\n";
  }

  std::filesystem::path dir_;
  std::string data_path_;
};

TEST_F(ServerHostTest, RegistrationAfterStartIsRejectedEvenOnceStopped) {
  WriteUniformDataset(10);
  EngineHost host({EngineSpec::For(EngineKind::kSequentialScan)});
  ASSERT_TRUE(host.LoadFile(data_path_).ok());

  ServerOptions options;
  options.host = "127.0.0.1";
  Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());

  // The backend is read lock-free by worker threads: once the server has
  // ever started, registration stays closed — including after Stop(), when
  // workers may still be draining.
  const Server::RequestHandler handler = [](const Request&) {
    return Response();
  };
  EXPECT_TRUE(server.RegisterHandler(handler).IsInvalid());
  EXPECT_TRUE(server.RegisterHost(&host).IsInvalid());
  server.Stop();
  EXPECT_TRUE(server.RegisterHandler(handler).IsInvalid());
  EXPECT_TRUE(server.RegisterHost(&host).IsInvalid());
}

TEST_F(ServerHostTest, ResponsesCarryTheGenerationAndAdminReadsIt) {
  WriteUniformDataset(12);
  EngineHost host({EngineSpec::For(EngineKind::kSequentialScan)});
  ASSERT_TRUE(host.LoadFile(data_path_).ok());
  const uint64_t generation = host.generation();
  ASSERT_NE(generation, 0u);

  ServerOptions options;
  options.host = "127.0.0.1";
  Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Response response;
  ASSERT_TRUE(client->Search("aaaa", 0, 0, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.matches.size(), 12u);
  EXPECT_EQ(response.generation, generation);

  ASSERT_TRUE(client->GetGeneration(&response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.generation, generation);
  server.Stop();
}

TEST_F(ServerHostTest, AdminReloadPublishesANewGenerationAndNewAnswers) {
  WriteUniformDataset(5);
  EngineHost host({EngineSpec::For(EngineKind::kSequentialScan)});
  ASSERT_TRUE(host.LoadFile(data_path_).ok());
  const uint64_t first = host.generation();

  ServerOptions options;
  options.host = "127.0.0.1";
  Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  WriteUniformDataset(9);
  Response response;
  ASSERT_TRUE(client->Reload("", &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_GT(response.generation, first);
  EXPECT_EQ(server.counters().reloads_ok.load(), 1u);

  ASSERT_TRUE(client->Search("aaaa", 0, 0, &response).ok());
  EXPECT_EQ(response.matches.size(), 9u);
  EXPECT_EQ(response.generation, host.generation());

  // A failed admin reload reports the error and keeps the old generation.
  const uint64_t current = host.generation();
  ASSERT_TRUE(client->Reload("/nonexistent/sss.txt", &response).ok());
  EXPECT_NE(response.code, StatusCode::kOk);
  EXPECT_EQ(response.generation, current);
  EXPECT_EQ(server.counters().reloads_failed.load(), 1u);
  ASSERT_TRUE(client->Search("aaaa", 0, 0, &response).ok());
  EXPECT_EQ(response.matches.size(), 9u);
  server.Stop();
}

// The zero-downtime acceptance run, in-process: clients hammer the server
// while the dataset file is rewritten and reloaded mid-flight. Required:
// zero transport errors, every response OK, every answer consistent with
// exactly one generation (old count or new count, never a mix), and both
// generations observed across the run. The reload starts on the first
// old-generation answer and each client runs until it sees the new one, so
// both generations are observed however the threads are scheduled.
TEST_F(ServerHostTest, ReloadUnderLoadLosesNoRequestsAndMixesNoGenerations) {
  constexpr size_t kOldSize = 40;
  constexpr size_t kNewSize = 70;
  WriteUniformDataset(kOldSize);
  EngineHost host({EngineSpec::For(EngineKind::kSequentialScan)});
  ASSERT_TRUE(host.LoadFile(data_path_).ok());
  const uint64_t old_generation = host.generation();

  ServerOptions options;
  options.host = "127.0.0.1";
  options.max_inflight = 256;  // shedding would hide lost requests
  Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 150;
  // Bounds a client whose reload never lands; far above what a run needs.
  constexpr size_t kMaxRequestsPerClient = 100000;
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<uint64_t> non_ok{0};
  std::mutex gen_mu;
  std::set<uint64_t> generations;
  // Trips once: on the first old-generation answer, or when a client gives
  // up, so the reload below never waits forever.
  std::latch serving_old(1);
  std::atomic<bool> tripped{false};
  const auto trip = [&] {
    if (!tripped.exchange(true)) serving_old.count_down();
  };

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        transport_errors.fetch_add(1, std::memory_order_relaxed);
        trip();
        return;
      }
      bool saw_new = false;
      for (size_t i = 0;
           i < kMaxRequestsPerClient && (i < kRequestsPerClient || !saw_new);
           ++i) {
        Response response;
        if (!client->Search("aaaa", 0, 0, &response).ok()) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
          trip();
          return;
        }
        if (response.code != StatusCode::kOk) {
          non_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // The response's generation id determines the only answer sizes a
        // pinned search may produce.
        const size_t expected =
            response.generation == old_generation ? kOldSize : kNewSize;
        if (response.matches.size() != expected) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
        saw_new = saw_new || response.generation != old_generation;
        {
          std::lock_guard<std::mutex> lock(gen_mu);
          generations.insert(response.generation);
        }
        trip();  // answers before the reload are all old-generation
      }
      trip();
    });
  }

  // Swap the collection once the run is serving the old generation.
  serving_old.wait();
  WriteUniformDataset(kNewSize);
  ASSERT_TRUE(server.Reload().ok());
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(non_ok.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(generations.size(), 2u) << "expected both generations observed";
  EXPECT_TRUE(generations.count(old_generation));
  EXPECT_TRUE(generations.count(host.generation()));
  server.Stop();
}

TEST_F(ServerRobustnessTest, RandomGarbageStreamsNeverKillTheServer) {
  auto server = StartServer(ServerOptions());
  Xoshiro256 rng(0xBAD5EED);
  for (int iter = 0; iter < 25; ++iter) {
    RawConnection raw(server->port());
    const size_t len = 1 + rng.Uniform(200);
    std::string garbage;
    garbage.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    raw.Send(garbage);
    if (rng.Uniform(2) == 0) raw.Drain();
    raw.Close();
  }
  ExpectStillServing(*server);
}

}  // namespace
}  // namespace sss::server
