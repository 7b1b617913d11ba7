// sss_loadgen — closed-loop load generator for sss_server: M worker
// threads (--connections, alias --concurrency), each with its own
// connection, each keeping up to --pipeline requests in flight. At the
// default depth of 1 each worker runs the historical lock-step loop
// (issue, wait, repeat) so offered concurrency equals the connection
// count; deeper pipelines multiply offered load per connection without
// more sockets, and overload still shows up as kUnavailable responses
// rather than client-side queueing.
//
//   sss_loadgen --port 7070 --queries q.txt --connections 32
//               --pipeline 8 --requests 10000 [--json[=path]]
//
// --idle-connections opens that many extra connections that never send a
// byte and holds them for the whole run — the c10k smoke uses it to prove
// a reactor server keeps serving (with a bounded thread count) under tens
// of thousands of parked sockets.
//
// Every request carries a globally unique id; the client layer verifies
// the response echoes it, so crossed responses surface as transport errors
// instead of silently wrong answers. The report covers latency percentiles,
// per-StatusCode response counts, and transport errors; --json writes the
// bench-pipeline document (schema_version 1) with the client-observed
// counts mirrored into the server_* SearchStats fields.
//
// Exit codes: 0 = every exchange completed at the transport level (shed or
// cancelled responses are still successful exchanges), 1 = transport or
// protocol errors, 2 = usage.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_json.h"
#include "io/reader.h"
#include "server/client.h"
#include "util/backoff.h"
#include "util/cancellation.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/search_stats.h"
#include "util/stopwatch.h"

namespace sss::server {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

// One slot per StatusCode value (kOk..kFailedPrecondition).
constexpr size_t kNumCodes = 12;

// Reconnect attempts per severed connection before the worker retires.
// With the default backoff schedule this spans roughly eight seconds —
// enough to ride out a server restart, bounded enough to not hang a run
// against a server that is gone for good.
constexpr uint32_t kMaxReconnectAttempts = 8;

// --mixed-thresholds: request i carries ks[i % ks.size()] instead of the
// query file's own threshold, so a pipelined window holds heterogeneous
// (k, length) work and the server-side BatchPlanner has real groups to
// form. One histogram per slot keeps per-threshold percentiles separable
// in the report (cheap thresholds and expensive ones share a window, so a
// blended percentile would hide the expensive tail). deque: the
// histograms are neither copyable nor movable.
struct MixedThresholds {
  std::vector<uint32_t> ks;
  std::deque<LatencyHistogram> latency;  // one per entry in `ks`
};

struct Totals {
  std::atomic<uint64_t> by_code[kNumCodes] = {};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> degraded{0};  // responses flagged explicitly partial
  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  // Distinct non-zero engine generations seen in responses. Under a live
  // reload the set should hold the old and the new id — the reload smoke
  // asserts exactly that. Mutexed: inserts are rare (one per response, tiny
  // set) and only the final report reads it.
  std::mutex gen_mu;
  std::set<uint64_t> generations;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: sss_loadgen --port N --queries FILE [flags]\n"
      "  --host ADDR       server address (default 127.0.0.1)\n"
      "  --default-k K     threshold for query lines without one (default 1)\n"
      "  --connections M   worker connections (default 8; --concurrency is\n"
      "                    the historical alias)\n"
      "  --pipeline N      requests kept in flight per connection (default 1\n"
      "                    = lock-step)\n"
      "  --idle-connections K\n"
      "                    extra connections opened and parked, never\n"
      "                    sending a byte, for the whole run (default 0)\n"
      "  --requests N      total requests across all workers (default 1000)\n"
      "  --duration-s S    run for S seconds of wall time instead of a fixed\n"
      "                    request count (overrides --requests)\n"
      "  --deadline-ms MS  per-request deadline (default 0 = none)\n"
      "  --mixed-thresholds K1,K2,...\n"
      "                    request i uses threshold Ki (round-robin) instead\n"
      "                    of the query file's k, so pipelined windows carry\n"
      "                    heterogeneous work; reports per-threshold latency\n"
      "  --json[=PATH]     write BENCH_sss_loadgen.json (bench schema)\n"
      "exit codes: 0 all exchanges completed, 1 transport errors, 2 usage\n");
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return kExitError;
}

// Folds one completed exchange into the shared totals.
void CountResponse(const Response& response, Totals* totals) {
  const size_t code = static_cast<size_t>(response.code);
  totals->by_code[code < kNumCodes ? code : kNumCodes - 1].fetch_add(
      1, std::memory_order_relaxed);
  totals->matches.fetch_add(response.matches.size(),
                            std::memory_order_relaxed);
  if (response.degraded) {
    totals->degraded.fetch_add(1, std::memory_order_relaxed);
  }
  if (response.generation != 0 || !response.shards.empty()) {
    std::lock_guard<std::mutex> lock(totals->gen_mu);
    if (response.generation != 0) {
      totals->generations.insert(response.generation);
    }
    // A routed response names every answering shard's generation; a
    // mid-traffic reload of one shard shows up as a mixed set here.
    for (const ShardGeneration& entry : response.shards) {
      if (entry.generation != 0) {
        totals->generations.insert(entry.generation);
      }
    }
  }
}

// Redials a severed connection under capped exponential backoff with
// jitter — a tight reconnect loop against a restarting server would hammer
// it with SYNs exactly when it is weakest. False = server gone for good.
bool Redial(Client* client, Deadline until, uint64_t seed) {
  Backoff backoff(BackoffPolicy{}, Xoshiro256::kDefaultSeed ^ seed);
  for (uint32_t attempt = 0;
       attempt < kMaxReconnectAttempts && !until.Expired(); ++attempt) {
    if (client->Reconnect().ok()) return true;
    std::this_thread::sleep_for(backoff.Next());
  }
  return false;
}

void Worker(const std::string& host, uint16_t port, const QuerySet& queries,
            uint32_t deadline_ms, size_t num_requests, Deadline until,
            std::atomic<size_t>* next, Totals* totals,
            LatencyHistogram* latency, MixedThresholds* mixed) {
  // Accumulated across reconnects; folded into the totals once at exit.
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  const auto retire = [&](Client* c) {
    bytes_sent += c->bytes_sent();
    bytes_received += c->bytes_received();
    c->Close();
  };

  auto connected = Client::Connect(host, port);
  if (!connected.ok()) {
    // A refused connection sinks every request this worker would have
    // issued; count one transport error and let the others be claimed by
    // workers that did connect.
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    totals->transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Client client = std::move(*connected);
  for (;;) {
    if (until.Expired()) break;  // duration mode: stop issuing, finish clean
    const size_t i = next->fetch_add(1, std::memory_order_relaxed);
    if (i >= num_requests) break;
    const Query& q = queries[i % queries.size()];
    const size_t slot = mixed ? i % mixed->ks.size() : 0;
    Request request;
    request.request_id = static_cast<uint64_t>(i) + 1;  // globally unique
    request.k = mixed ? mixed->ks[slot] : static_cast<uint32_t>(q.max_distance);
    request.deadline_ms = deadline_ms;
    request.query = q.text;

    Response response;
    Stopwatch timer;
    const Status st = client.Call(std::move(request), &response);
    const uint64_t elapsed = static_cast<uint64_t>(timer.ElapsedNanos());
    latency->Record(elapsed);
    if (mixed) mixed->latency[slot].Record(elapsed);
    if (!st.ok()) {
      // The request is lost (counted as a transport error, not retried) and
      // the connection cannot resync; redial and keep claiming so one
      // severed connection doesn't retire the worker. Byte counters carry
      // over across Reconnect(); the final retire() folds them in once.
      std::fprintf(stderr, "request %zu failed: %s\n", i + 1,
                   st.ToString().c_str());
      totals->transport_errors.fetch_add(1, std::memory_order_relaxed);
      if (!Redial(&client, until, i + 1)) break;  // server gone for good
      continue;
    }
    CountResponse(response, totals);
  }
  retire(&client);
  totals->bytes_sent.fetch_add(bytes_sent, std::memory_order_relaxed);
  totals->bytes_received.fetch_add(bytes_received, std::memory_order_relaxed);
}

// Windowed worker: keeps up to `pipeline` requests outstanding on one
// connection via Send()/Receive(). Per-request latency is still measured
// send-to-receive, so deep pipelines report the queueing they induce. On a
// transport error every outstanding request is lost with the connection;
// each counts as a transport error so issued == completed + errors holds.
void PipelinedWorker(const std::string& host, uint16_t port,
                     const QuerySet& queries, uint32_t deadline_ms,
                     size_t pipeline, size_t num_requests, Deadline until,
                     std::atomic<size_t>* next, Totals* totals,
                     LatencyHistogram* latency, MixedThresholds* mixed) {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  auto connected = Client::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    totals->transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Client client = std::move(*connected);
  Stopwatch clock;
  struct InFlight {
    uint64_t started;  // ns on `clock`
    size_t slot;       // mixed-threshold histogram slot (0 when unmixed)
  };
  std::unordered_map<uint64_t, InFlight> sent_at;  // by request id
  size_t last_claim = 0;
  bool exhausted = false;
  for (;;) {
    // Top up the window, then block for whichever response lands next.
    bool severed = false;
    while (!exhausted && sent_at.size() < pipeline) {
      if (until.Expired()) {
        exhausted = true;
        break;
      }
      const size_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= num_requests) {
        exhausted = true;
        break;
      }
      last_claim = i + 1;
      const Query& q = queries[i % queries.size()];
      const size_t slot = mixed ? i % mixed->ks.size() : 0;
      Request request;
      request.request_id = static_cast<uint64_t>(i) + 1;  // globally unique
      request.k =
          mixed ? mixed->ks[slot] : static_cast<uint32_t>(q.max_distance);
      request.deadline_ms = deadline_ms;
      request.query = q.text;
      const uint64_t started = clock.ElapsedNanos();
      auto id = client.Send(std::move(request));
      if (!id.ok()) {
        std::fprintf(stderr, "send %zu failed: %s\n", i + 1,
                     id.status().ToString().c_str());
        totals->transport_errors.fetch_add(sent_at.size() + 1,
                                           std::memory_order_relaxed);
        sent_at.clear();
        severed = true;
        break;
      }
      sent_at.emplace(*id, InFlight{started, slot});
    }
    if (!severed) {
      if (sent_at.empty()) break;  // exhausted and fully drained
      Response response;
      const Status st = client.Receive(&response);
      if (st.ok()) {
        const auto it = sent_at.find(response.request_id);
        // Receive() already rejects unknown ids as kCorruption, so the
        // lookup cannot miss.
        const uint64_t elapsed = clock.ElapsedNanos() - it->second.started;
        latency->Record(elapsed);
        if (mixed) mixed->latency[it->second.slot].Record(elapsed);
        sent_at.erase(it);
        CountResponse(response, totals);
        continue;
      }
      std::fprintf(stderr, "receive failed with %zu in flight: %s\n",
                   sent_at.size(), st.ToString().c_str());
      totals->transport_errors.fetch_add(sent_at.size(),
                                         std::memory_order_relaxed);
      sent_at.clear();
      severed = true;
    }
    if (exhausted) break;  // nothing left to claim; don't redial for nothing
    if (!Redial(&client, until, last_claim)) break;  // server gone for good
  }
  bytes_sent += client.bytes_sent();
  bytes_received += client.bytes_received();
  client.Close();
  totals->bytes_sent.fetch_add(bytes_sent, std::memory_order_relaxed);
  totals->bytes_received.fetch_add(bytes_received, std::memory_order_relaxed);
}

int Run(const FlagSet& flags) {
  Result<int64_t> port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port <= 0 || *port > 65535) {
    std::fprintf(stderr, "sss_loadgen: --port is required\n");
    return kExitUsage;
  }
  Result<std::string> query_flag = flags.GetString("queries", "");
  if (!query_flag.ok()) return Fail(query_flag.status());
  const std::string& query_path = *query_flag;
  if (query_path.empty()) {
    std::fprintf(stderr, "sss_loadgen: --queries is required\n");
    return kExitUsage;
  }
  Result<std::string> host_flag = flags.GetString("host", "127.0.0.1");
  if (!host_flag.ok()) return Fail(host_flag.status());
  const std::string& host = *host_flag;
  Result<int64_t> default_k = flags.GetInt("default-k", 1);
  if (!default_k.ok()) return Fail(default_k.status());
  // --connections is the primary spelling; --concurrency is the historical
  // alias (same meaning: worker connections). --connections wins when both
  // are given.
  Result<int64_t> concurrency = flags.GetInt("concurrency", 8);
  if (!concurrency.ok()) return Fail(concurrency.status());
  if (flags.Has("connections")) {
    concurrency = flags.GetInt("connections", 8);
    if (!concurrency.ok()) return Fail(concurrency.status());
  }
  if (*concurrency < 1) {
    std::fprintf(stderr, "sss_loadgen: --connections must be >= 1\n");
    return kExitUsage;
  }
  Result<int64_t> pipeline = flags.GetInt("pipeline", 1);
  if (!pipeline.ok()) return Fail(pipeline.status());
  if (*pipeline < 1) {
    std::fprintf(stderr, "sss_loadgen: --pipeline must be >= 1\n");
    return kExitUsage;
  }
  Result<int64_t> idle_connections = flags.GetInt("idle-connections", 0);
  if (!idle_connections.ok()) return Fail(idle_connections.status());
  if (*idle_connections < 0) {
    std::fprintf(stderr, "sss_loadgen: --idle-connections must be >= 0\n");
    return kExitUsage;
  }
  Result<int64_t> requests = flags.GetInt("requests", 1000);
  if (!requests.ok()) return Fail(requests.status());
  if (*requests < 1) {
    std::fprintf(stderr, "sss_loadgen: --requests must be >= 1\n");
    return kExitUsage;
  }
  Result<int64_t> deadline_ms = flags.GetInt("deadline-ms", 0);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  Result<int64_t> duration_s = flags.GetInt("duration-s", 0);
  if (!duration_s.ok()) return Fail(duration_s.status());
  if (*duration_s < 0) {
    std::fprintf(stderr, "sss_loadgen: --duration-s must be >= 0\n");
    return kExitUsage;
  }
  MixedThresholds mixed_storage;
  MixedThresholds* mixed = nullptr;
  if (flags.Has("mixed-thresholds")) {
    Result<std::string> spec_flag = flags.GetString("mixed-thresholds", "");
    if (!spec_flag.ok()) return Fail(spec_flag.status());
    const std::string& spec = *spec_flag;
    size_t pos = 0;
    while (pos <= spec.size()) {
      const size_t comma = std::min(spec.find(',', pos), spec.size());
      const std::string token = spec.substr(pos, comma - pos);
      pos = comma + 1;
      char* end = nullptr;
      const long k = std::strtol(token.c_str(), &end, 10);
      if (token.empty() || *end != '\0' || k < 0) {
        std::fprintf(stderr,
                     "sss_loadgen: --mixed-thresholds wants K1,K2,... "
                     "(non-negative integers), got '%s'\n",
                     spec.c_str());
        return kExitUsage;
      }
      mixed_storage.ks.push_back(static_cast<uint32_t>(k));
      mixed_storage.latency.emplace_back();
    }
    if (mixed_storage.ks.empty()) {
      std::fprintf(stderr, "sss_loadgen: --mixed-thresholds is empty\n");
      return kExitUsage;
    }
    mixed = &mixed_storage;
  }
  if (!RejectUnreadFlags(flags, "sss_loadgen")) return kExitUsage;

  auto queries =
      ReadQueryFile(query_path, static_cast<int>(*default_k));
  if (!queries.ok()) return Fail(queries.status());
  if (queries->empty()) {
    std::fprintf(stderr, "sss_loadgen: %s has no queries\n",
                 query_path.c_str());
    return kExitUsage;
  }

  Totals totals;
  LatencyHistogram latency;
  std::atomic<size_t> next{0};
  // Duration mode uncaps the request counter and stops workers on the
  // clock instead; each worker still finishes its in-flight exchange, so
  // the run ends with complete responses, not severed connections.
  const bool timed = *duration_s > 0;
  const size_t num_requests =
      timed ? SIZE_MAX : static_cast<size_t>(*requests);
  const Deadline until =
      timed ? Deadline::After(std::chrono::seconds(*duration_s))
            : Deadline::Infinite();

  // Park the idle connections before offering load: the point of the c10k
  // smoke is that traffic flows *while* they sit there. Any idle connect
  // failure is a hard error — a server that can't accept parked sockets
  // has failed the test this flag exists for.
  std::vector<Client> parked;
  parked.reserve(static_cast<size_t>(*idle_connections));
  for (int64_t k = 0; k < *idle_connections; ++k) {
    auto idle = Client::Connect(host, static_cast<uint16_t>(*port));
    if (!idle.ok()) {
      std::fprintf(stderr, "idle connection %lld failed: %s\n",
                   static_cast<long long>(k + 1),
                   idle.status().ToString().c_str());
      return kExitError;
    }
    parked.push_back(std::move(*idle));
  }
  if (!parked.empty()) {
    std::printf("parked %zu idle connections\n", parked.size());
  }

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(*concurrency));
  for (int64_t w = 0; w < *concurrency; ++w) {
    if (*pipeline > 1) {
      workers.emplace_back(PipelinedWorker, host,
                           static_cast<uint16_t>(*port), std::cref(*queries),
                           static_cast<uint32_t>(*deadline_ms),
                           static_cast<size_t>(*pipeline), num_requests,
                           until, &next, &totals, &latency, mixed);
    } else {
      workers.emplace_back(Worker, host, static_cast<uint16_t>(*port),
                           std::cref(*queries),
                           static_cast<uint32_t>(*deadline_ms), num_requests,
                           until, &next, &totals, &latency, mixed);
    }
  }
  for (std::thread& t : workers) t.join();
  for (Client& idle : parked) idle.Close();
  const double wall_seconds = wall.ElapsedSeconds();

  uint64_t completed = 0;
  for (const auto& counter : totals.by_code) {
    completed += counter.load(std::memory_order_relaxed);
  }
  const uint64_t transport_errors =
      totals.transport_errors.load(std::memory_order_relaxed);
  const uint64_t issued =
      std::min(next.load(std::memory_order_relaxed),
               static_cast<size_t>(num_requests));
  std::printf(
      "requests=%llu completed=%llu transport_errors=%llu degraded=%llu "
      "matches=%llu wall=%.3fs (%.0f req/s)\n",
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(transport_errors),
      static_cast<unsigned long long>(
          totals.degraded.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          totals.matches.load(std::memory_order_relaxed)),
      wall_seconds,
      wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds : 0);
  for (size_t code = 0; code < kNumCodes; ++code) {
    const uint64_t n = totals.by_code[code].load(std::memory_order_relaxed);
    if (n == 0) continue;
    std::printf("  %-12s %llu\n",
                std::string(StatusCodeToString(static_cast<StatusCode>(code)))
                    .c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("latency: %s\n", latency.ScaledSummary(1e3, "us").c_str());
  if (mixed) {
    for (size_t slot = 0; slot < mixed->ks.size(); ++slot) {
      std::printf("latency[k=%u]: %s (%llu requests)\n", mixed->ks[slot],
                  mixed->latency[slot].ScaledSummary(1e3, "us").c_str(),
                  static_cast<unsigned long long>(
                      mixed->latency[slot].count()));
    }
  }
  {
    // No lock needed — workers are joined — but keep the accessor pattern.
    std::lock_guard<std::mutex> lock(totals.gen_mu);
    std::string gens;
    for (const uint64_t g : totals.generations) {
      gens += ' ';
      gens += std::to_string(g);
    }
    std::printf("generations observed: %zu [%s]\n", totals.generations.size(),
                gens.empty() ? "" : gens.c_str() + 1);
  }

  auto& json = bench::BenchJson::Instance();
  if (json.enabled()) {
    json.SetContext("sss_loadgen", "loopback", 1.0, 1.0, 0, queries->size());
    // Client-observed outcomes, mirrored onto the serving-layer counters so
    // the document validates against the same schema as the other benches.
    SearchStats stats;
    stats.server_requests_accepted =
        totals.by_code[static_cast<size_t>(StatusCode::kOk)].load();
    stats.server_requests_shed =
        totals.by_code[static_cast<size_t>(StatusCode::kUnavailable)].load();
    stats.server_requests_cancelled =
        totals.by_code[static_cast<size_t>(StatusCode::kCancelled)].load();
    stats.server_bytes_in = totals.bytes_received.load();
    stats.server_bytes_out = totals.bytes_sent.load();
    int k_max = 0;
    for (const Query& q : *queries) k_max = std::max(k_max, q.max_distance);
    json.AddRun("server", *pipeline > 1 ? "pipelined" : "closed-loop",
                static_cast<size_t>(*concurrency), num_requests, k_max,
                totals.matches.load(), 1, latency, stats);
    if (!json.Write()) return kExitError;
  }
  return transport_errors == 0 ? kExitOk : kExitError;
}

}  // namespace
}  // namespace sss::server

int main(int argc, char** argv) {
  sss::bench::BenchJson::Instance().StripFlag(&argc, argv);
  auto flags = sss::FlagSet::Parse(argc, argv);
  if (!flags.ok()) return sss::server::Fail(flags.status());
  if (flags->Has("help")) return sss::server::Usage();
  return sss::server::Run(*flags);
}
