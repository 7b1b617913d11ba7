// sss_server — TCP front-end for the search engines (see src/server/).
//
//   sss_cli generate --workload city --count 40000 --out data.txt
//   sss_server --data data.txt --engine scan,partition --port 7070
//              --max-inflight 64 --deadline-ms 500    (one command line)
//
// Prints "listening on HOST:PORT" once ready (scripts wait for that line),
// serves until SIGTERM/SIGINT, then drains gracefully: in-flight requests
// finish and get their responses before the process exits 0. --stats-json
// dumps the server counters and accumulated engine SearchStats at shutdown.
//
// Engines are served from an EngineHost generation built over one
// collection snapshot; ids follow uint8_t(EngineKind) (kAutoEngineId for
// "auto"), and the first name in --engine is the default for requests that
// do not pin an engine. SIGHUP (or a kAdmin reload frame) republishes a
// fresh generation from the --data file with zero downtime: in-flight
// requests drain on the old snapshot while new ones see the new
// generation. --reload-on-sighup=false leaves SIGHUP at its default
// (fatal) disposition. The search frames decoded from a connection in one
// drain run as one SearchBatch window: serially when the window holds one
// query, kSharded with one lane per query otherwise.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "io/reader.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/search_stats.h"

namespace sss::server {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIOError = 3;
constexpr int kExitUnavailable = 5;

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }
void HandleReloadSignal(int) { g_reload_requested = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: sss_server --data FILE [flags]\n"
      "  --host ADDR        numeric IPv4 bind address (default 127.0.0.1)\n"
      "  --port N           port; 0 picks an ephemeral one (default 0)\n"
      "  --dna              dataset uses the DNA alphabet\n"
      "  --engine LIST      comma list of engine specs to register; first is\n"
      "                     the default (default scan). Registered specs:\n"
      "                     %s.\n"
      "                     'auto' routes per dataset profile and degrades\n"
      "                     under deadline pressure; 'approx' answers from\n"
      "                     LSH buckets with exact-verified matches.\n"
      "  --reload-on-sighup BOOL\n"
      "                     SIGHUP republishes a fresh engine generation\n"
      "                     from --data with zero downtime (default true)\n"
      "  --max-inflight N   searches in flight before shedding (default 64)\n"
      "  --workers N        search worker threads; 0 sizes from the machine\n"
      "                     (default 0)\n"
      "  --idle-timeout-ms MS\n"
      "                     reclaim connections stalled mid-frame after MS;\n"
      "                     0 disables (default 30000)\n"
      "  --deadline-ms MS   server-side cap on request deadlines; requests\n"
      "                     without one get the cap (default 0 = uncapped)\n"
      "  --backlog N        listen backlog (default 128)\n"
      "  --stats-json       print counters + SearchStats JSON at shutdown\n"
      "  --failpoint LIST   comma list of NAME=fail[:N] | NAME=sleep:MS[:N]\n"
      "                     (needs a -DSSS_FAILPOINTS=ON build)\n"
      "exit codes: 0 clean shutdown, 1 error, 2 usage, 3 I/O error,\n"
      "            5 could not bind/listen\n",
      sss::KnownEngineSpecsHelp().c_str());
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (status.IsIOError()) return kExitIOError;
  if (status.IsUnavailable()) return kExitUnavailable;
  return kExitError;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Arms failpoints from "NAME=fail[:N],NAME=sleep:MS[:N]". In builds without
// SSS_FAILPOINTS the flag is a hard error: a fault-injection run that
// silently injects nothing would pass CI for the wrong reason.
Status ArmFailpoints(const std::string& spec) {
  if (spec.empty()) return Status::OK();
#if !defined(SSS_FAILPOINTS)
  return Status::Invalid(
      "--failpoint needs a -DSSS_FAILPOINTS=ON build; this binary has "
      "failpoints compiled out");
#else
  for (const std::string& entry : SplitCommas(spec)) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::Invalid("--failpoint entry '" + entry +
                             "' is not NAME=MODE");
    }
    const std::string name = entry.substr(0, eq);
    std::vector<std::string> mode;
    size_t start = eq + 1;
    while (start <= entry.size()) {
      const size_t colon = entry.find(':', start);
      const size_t end = colon == std::string::npos ? entry.size() : colon;
      mode.push_back(entry.substr(start, end - start));
      if (colon == std::string::npos) break;
      start = colon + 1;
    }
    if (mode.empty()) {
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
  }
  return Status::OK();
#endif
}

void PrintStatsJson(const Server& server, const StatsSink& sink,
                    uint64_t generation) {
  const ServerCounters& c = server.counters();
  std::string json;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":1,\"server\":{"
      "\"connections_accepted\":%llu,\"requests_ok\":%llu,"
      "\"requests_shed\":%llu,\"requests_cancelled\":%llu,"
      "\"requests_rejected\":%llu,\"protocol_errors\":%llu,"
      "\"idle_timeouts\":%llu,"
      "\"bytes_in\":%llu,\"bytes_out\":%llu,"
      "\"reloads_ok\":%llu,\"reloads_failed\":%llu,"
      "\"generation\":%llu},\"stats\":",
      static_cast<unsigned long long>(c.connections_accepted.load()),
      static_cast<unsigned long long>(c.requests_ok.load()),
      static_cast<unsigned long long>(c.requests_shed.load()),
      static_cast<unsigned long long>(c.requests_cancelled.load()),
      static_cast<unsigned long long>(c.requests_rejected.load()),
      static_cast<unsigned long long>(c.protocol_errors.load()),
      static_cast<unsigned long long>(c.idle_timeouts.load()),
      static_cast<unsigned long long>(c.bytes_in.load()),
      static_cast<unsigned long long>(c.bytes_out.load()),
      static_cast<unsigned long long>(c.reloads_ok.load()),
      static_cast<unsigned long long>(c.reloads_failed.load()),
      static_cast<unsigned long long>(generation));
  json += buf;
  sink.Collected().AppendJson(&json);
  json += "}";
  std::printf("%s\n", json.c_str());
}

int Run(const FlagSet& flags) {
  Result<std::string> dataset_alias = flags.GetString("dataset", "");
  if (!dataset_alias.ok()) return Fail(dataset_alias.status());
  Result<std::string> data_flag = flags.GetString("data", *dataset_alias);
  if (!data_flag.ok()) return Fail(data_flag.status());
  const std::string& data_path = *data_flag;
  if (data_path.empty()) {
    std::fprintf(stderr, "sss_server: --data is required\n");
    return kExitUsage;
  }

  ServerOptions options;
  Result<std::string> bind_host = flags.GetString("host", "127.0.0.1");
  if (!bind_host.ok()) return Fail(bind_host.status());
  options.host = *bind_host;
  Result<int64_t> port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port < 0 || *port > 65535) {
    std::fprintf(stderr, "sss_server: --port out of range\n");
    return kExitUsage;
  }
  options.port = static_cast<uint16_t>(*port);
  Result<int64_t> max_inflight = flags.GetInt("max-inflight", 64);
  if (!max_inflight.ok()) return Fail(max_inflight.status());
  if (*max_inflight < 1) {
    std::fprintf(stderr, "sss_server: --max-inflight must be >= 1\n");
    return kExitUsage;
  }
  options.max_inflight = static_cast<size_t>(*max_inflight);
  Result<int64_t> deadline_ms = flags.GetInt("deadline-ms", 0);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  if (*deadline_ms < 0) {
    std::fprintf(stderr, "sss_server: --deadline-ms must be >= 0\n");
    return kExitUsage;
  }
  options.max_deadline_ms = static_cast<uint32_t>(*deadline_ms);
  Result<int64_t> workers = flags.GetInt("workers", 0);
  if (!workers.ok()) return Fail(workers.status());
  if (*workers < 0) {
    std::fprintf(stderr, "sss_server: --workers must be >= 0\n");
    return kExitUsage;
  }
  options.worker_threads = static_cast<size_t>(*workers);
  Result<int64_t> idle_timeout_ms = flags.GetInt("idle-timeout-ms", 30000);
  if (!idle_timeout_ms.ok()) return Fail(idle_timeout_ms.status());
  if (*idle_timeout_ms < 0) {
    std::fprintf(stderr, "sss_server: --idle-timeout-ms must be >= 0\n");
    return kExitUsage;
  }
  options.idle_timeout_ms = static_cast<uint32_t>(*idle_timeout_ms);
  Result<int64_t> backlog = flags.GetInt("backlog", 128);
  if (!backlog.ok()) return Fail(backlog.status());
  options.backlog = static_cast<int>(*backlog);

  Result<std::string> failpoint = flags.GetString("failpoint", "");
  if (!failpoint.ok()) return Fail(failpoint.status());
  Status fp = ArmFailpoints(*failpoint);
  if (!fp.ok()) return Fail(fp);

  Result<bool> dna = flags.GetBool("dna", false);
  if (!dna.ok()) return Fail(dna.status());
  Result<bool> reload_on_sighup = flags.GetBool("reload-on-sighup", true);
  if (!reload_on_sighup.ok()) return Fail(reload_on_sighup.status());
  Result<bool> stats_json = flags.GetBool("stats-json", false);
  if (!stats_json.ok()) return Fail(stats_json.status());
  Result<std::string> engine_list = flags.GetString("engine", "scan");
  if (!engine_list.ok()) return Fail(engine_list.status());
  if (!RejectUnreadFlags(flags, "sss_server")) return kExitUsage;

  std::vector<EngineSpec> specs;
  for (const std::string& name : SplitCommas(*engine_list)) {
    auto spec = ParseEngineSpec(name);
    if (!spec.ok()) return Fail(spec.status());
    specs.push_back(*spec);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "sss_server: --engine list is empty\n");
    return kExitUsage;
  }

  StatsSink sink;
  options.stats = &sink;

  // The host owns every engine generation; the server borrows the host and
  // pins one generation per request, so a reload never races a search.
  EngineHostOptions host_options;
  host_options.alphabet = *dna ? AlphabetKind::kDna : AlphabetKind::kGeneric;
  host_options.stats = &sink;
  EngineHost host(std::move(specs), host_options);
  Status loaded = host.LoadFile(data_path);
  if (!loaded.ok()) return Fail(loaded);

  Server server(options);
  Status st = server.RegisterHost(&host);
  if (!st.ok()) return Fail(st);

  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  if (*reload_on_sighup) {
    struct sigaction reload_action = {};
    reload_action.sa_handler = HandleReloadSignal;
    sigaction(SIGHUP, &reload_action, nullptr);
  }

  st = server.Start();
  if (!st.ok()) return Fail(st);
  std::printf("listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    if (g_reload_requested != 0) {
      // Reload on the main thread, not in the signal handler: a handler may
      // only touch the flag, and serializing reloads here means a SIGHUP
      // burst coalesces into one republish per loop turn.
      g_reload_requested = 0;
      const Status reloaded = server.Reload();
      if (reloaded.ok()) {
        std::fprintf(stderr, "sss_server: reloaded, generation %llu\n",
                     static_cast<unsigned long long>(host.generation()));
      } else {
        std::fprintf(stderr, "sss_server: reload failed (still serving "
                             "generation %llu): %s\n",
                     static_cast<unsigned long long>(host.generation()),
                     reloaded.ToString().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "sss_server: draining\n");
  server.Stop();

  if (*stats_json) {
    PrintStatsJson(server, sink, host.generation());
  }
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
