// sss_router — fault-tolerant scatter-gather front-end over a set of
// sss_server shard processes (see src/server/router.h for the failure
// policy: per-shard circuit breakers, bounded retries with backoff, one
// hedge per request, graceful degradation to explicitly-partial answers).
//
//   sss_server --data shard0.txt --port 7071 &
//   sss_server --data shard1.txt --port 7072 &
//   sss_router --shards 127.0.0.1:7071:0,127.0.0.1:7072:20000 --port 7070
//
// Each --shards entry is host:port:id_base — the shard's match ids are
// translated into global id space by adding id_base, so the shard files
// must be contiguous slices of one collection, listed in slice order.
//
// Speaks the same wire protocol as sss_server, so sss_loadgen (or any
// client) points at the router unchanged; fanned-out answers additionally
// carry the shard-set trailer and, when a shard was unreachable, the
// degraded flag. Prints "listening on HOST:PORT" once ready, serves until
// SIGTERM/SIGINT, drains gracefully. --stats-json dumps the front-end
// counters plus the router_* counters at shutdown.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "server/router.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/search_stats.h"

namespace sss::server {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnavailable = 5;

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: sss_router --shards H:P:BASE[,H:P:BASE...] [flags]\n"
      "  --shards LIST      shard endpoints as host:port:id_base, in slice\n"
      "                     order; a shard's local ids are offset by its\n"
      "                     id_base in merged answers (required)\n"
      "  --host ADDR        numeric IPv4 bind address (default 127.0.0.1)\n"
      "  --port N           port; 0 picks an ephemeral one (default 0)\n"
      "  --max-inflight N   fan-outs in flight before shedding (default 64)\n"
      "  --workers N        dispatch worker threads; a fan-out occupies its\n"
      "                     worker for the whole scatter-gather, so the\n"
      "                     router defaults higher than sss_server\n"
      "                     (default 32)\n"
      "  --deadline-ms MS   deadline for requests that carry none\n"
      "                     (default 1000)\n"
      "  --hedge-ms MS      delay before the one speculative hedge per\n"
      "                     request; 0 disables hedging (default 100)\n"
      "  --retries N        transport-failure retries per shard (default 2)\n"
      "  --breaker-threshold N\n"
      "                     consecutive transport failures that open a\n"
      "                     shard's circuit (default 3)\n"
      "  --breaker-cooldown-ms MS\n"
      "                     open-circuit cooldown before the half-open\n"
      "                     probe (default 500)\n"
      "  --backlog N        listen backlog (default 128)\n"
      "  --stats-json       print counters JSON at shutdown\n"
      "  --failpoint LIST   comma list of NAME=fail[:N] | NAME=sleep:MS[:N]\n"
      "                     (needs a -DSSS_FAILPOINTS=ON build)\n"
      "exit codes: 0 clean shutdown, 1 error, 2 usage,\n"
      "            5 could not bind/listen\n");
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (status.IsUnavailable()) return kExitUnavailable;
  return kExitError;
}

// Arms failpoints from "NAME=fail[:N],NAME=sleep:MS[:N]" (same grammar and
// same no-silent-noop rule as sss_server).
Status ArmFailpoints(const std::string& spec) {
  if (spec.empty()) return Status::OK();
#if !defined(SSS_FAILPOINTS)
  return Status::Invalid(
      "--failpoint needs a -DSSS_FAILPOINTS=ON build; this binary has "
      "failpoints compiled out");
#else
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) {
      if (comma == std::string::npos) break;
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::Invalid("--failpoint entry '" + entry +
                             "' is not NAME=MODE");
    }
    const std::string name = entry.substr(0, eq);
    std::vector<std::string> mode;
    size_t mstart = eq + 1;
    while (mstart <= entry.size()) {
      const size_t colon = entry.find(':', mstart);
      const size_t mend = colon == std::string::npos ? entry.size() : colon;
      mode.push_back(entry.substr(mstart, mend - mstart));
      if (colon == std::string::npos) break;
      mstart = colon + 1;
    }
    if (mode.empty() || mode[0].empty()) {
      return Status::Invalid("--failpoint entry '" + entry + "' has no mode");
    }
    if (mode[0] == "fail") {
      const int times = mode.size() > 1 ? std::atoi(mode[1].c_str()) : -1;
      FailPoints::Instance().Fail(
          name, Status::IOError("injected fault at " + name), times);
    } else if (mode[0] == "sleep") {
      if (mode.size() < 2) {
        return Status::Invalid("--failpoint sleep needs sleep:MS");
      }
      const int ms = std::atoi(mode[1].c_str());
      const int times = mode.size() > 2 ? std::atoi(mode[2].c_str()) : -1;
      FailPoints::Instance().Sleep(name, std::chrono::milliseconds(ms),
                                   times);
    } else {
      return Status::Invalid("--failpoint mode '" + mode[0] +
                             "' is not fail|sleep");
    }
    if (comma == std::string::npos) break;
  }
  return Status::OK();
#endif
}

void PrintStatsJson(const Server& server, const Router& router) {
  const ServerCounters& c = server.counters();
  std::string json;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":1,\"server\":{"
      "\"connections_accepted\":%llu,\"requests_ok\":%llu,"
      "\"requests_shed\":%llu,\"requests_cancelled\":%llu,"
      "\"requests_rejected\":%llu,\"protocol_errors\":%llu,"
      "\"bytes_in\":%llu,\"bytes_out\":%llu},\"router\":",
      static_cast<unsigned long long>(c.connections_accepted.load()),
      static_cast<unsigned long long>(c.requests_ok.load()),
      static_cast<unsigned long long>(c.requests_shed.load()),
      static_cast<unsigned long long>(c.requests_cancelled.load()),
      static_cast<unsigned long long>(c.requests_rejected.load()),
      static_cast<unsigned long long>(c.protocol_errors.load()),
      static_cast<unsigned long long>(c.bytes_in.load()),
      static_cast<unsigned long long>(c.bytes_out.load()));
  json += buf;
  router.AppendCountersJson(&json);
  json += "}";
  std::printf("%s\n", json.c_str());
}

int Run(const FlagSet& flags) {
  Result<std::string> shards_spec = flags.GetString("shards", "");
  if (!shards_spec.ok()) return Fail(shards_spec.status());
  if (shards_spec->empty()) {
    std::fprintf(stderr, "sss_router: --shards is required\n");
    return kExitUsage;
  }
  Result<ShardSet> shards = ShardSet::Parse(*shards_spec);
  if (!shards.ok()) return Fail(shards.status());

  ServerOptions options;
  Result<std::string> host = flags.GetString("host", "127.0.0.1");
  if (!host.ok()) return Fail(host.status());
  options.host = *host;
  Result<int64_t> port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port < 0 || *port > 65535) {
    std::fprintf(stderr, "sss_router: --port out of range\n");
    return kExitUsage;
  }
  options.port = static_cast<uint16_t>(*port);
  Result<int64_t> max_inflight = flags.GetInt("max-inflight", 64);
  if (!max_inflight.ok()) return Fail(max_inflight.status());
  if (*max_inflight < 1) {
    std::fprintf(stderr, "sss_router: --max-inflight must be >= 1\n");
    return kExitUsage;
  }
  options.max_inflight = static_cast<size_t>(*max_inflight);
  // Router dispatch is I/O-bound: a worker sits blocked on shard sockets
  // for its request's whole lifetime, unlike sss_server's CPU-bound
  // searches. Default well above the machine-sized search pool so slow
  // shards don't starve the dispatch stage before admission control kicks
  // in; --max-inflight remains the actual overload valve.
  Result<int64_t> workers = flags.GetInt("workers", 32);
  if (!workers.ok()) return Fail(workers.status());
  if (*workers < 1) {
    std::fprintf(stderr, "sss_router: --workers must be >= 1\n");
    return kExitUsage;
  }
  options.worker_threads = static_cast<size_t>(*workers);
  Result<int64_t> backlog = flags.GetInt("backlog", 128);
  if (!backlog.ok()) return Fail(backlog.status());
  options.backlog = static_cast<int>(*backlog);

  RouterOptions router_options;
  const struct {
    const char* flag;
    int64_t def;
    int64_t min;
    uint32_t* out;
  } u32_flags[] = {
      {"deadline-ms", 1000, 1, &router_options.default_deadline_ms},
      {"hedge-ms", 100, 0, &router_options.hedge_delay_ms},
      {"retries", 2, 0, &router_options.max_retries},
      {"breaker-threshold", 3, 1, &router_options.breaker_threshold},
      {"breaker-cooldown-ms", 500, 0, &router_options.breaker_cooldown_ms},
  };
  for (const auto& f : u32_flags) {
    Result<int64_t> value = flags.GetInt(f.flag, f.def);
    if (!value.ok()) return Fail(value.status());
    if (*value < f.min || *value > 0xFFFFFFFFll) {
      std::fprintf(stderr, "sss_router: --%s out of range\n", f.flag);
      return kExitUsage;
    }
    *f.out = static_cast<uint32_t>(*value);
  }

  Result<std::string> failpoint = flags.GetString("failpoint", "");
  if (!failpoint.ok()) return Fail(failpoint.status());
  Status fp = ArmFailpoints(*failpoint);
  if (!fp.ok()) return Fail(fp);
  Result<bool> stats_json = flags.GetBool("stats-json", false);
  if (!stats_json.ok()) return Fail(stats_json.status());
  if (!RejectUnreadFlags(flags, "sss_router")) return kExitUsage;

  StatsSink sink;
  router_options.stats = &sink;
  options.stats = &sink;

  Router router(std::move(*shards), router_options);
  Server server(options);
  Status st = server.RegisterHandler(
      [&router](const Request& request) { return router.Dispatch(request); });
  if (!st.ok()) return Fail(st);

  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  st = server.Start();
  if (!st.ok()) return Fail(st);
  std::printf("listening on %s:%u (%zu shards)\n", options.host.c_str(),
              static_cast<unsigned>(server.port()), router.num_shards());
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "sss_router: draining\n");
  server.Stop();

  if (*stats_json) PrintStatsJson(server, router);
  return kExitOk;
}

}  // namespace
}  // namespace sss::server

int main(int argc, char** argv) {
  auto flags = sss::FlagSet::Parse(argc, argv);
  if (!flags.ok()) return sss::server::Fail(flags.status());
  if (flags->Has("help")) return sss::server::Usage();
  return sss::server::Run(*flags);
}
