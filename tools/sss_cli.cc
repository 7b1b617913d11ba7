// sss_cli — command-line front end for the library, in the shape of the
// EDBT/ICDT 2013 competition harness: datasets and queries are files, the
// tool reports only the result-computation time (I/O excluded), and
// results are written in the competition layout.
//
//   sss_cli generate --workload city --count 40000 --seed 7
//           --out data.txt --queries 100 --queries-out q.txt
//   sss_cli search --data data.txt --queries q.txt --engine scan
//           --strategy pool --threads 8 --out results.txt
//   sss_cli join --data data.txt --k 1 --out pairs.txt
//   sss_cli stats --data data.txt
//   (four commands; the first two each wrap onto a second line)
//
// Engines: scan | trie | ctrie | partition | auto
//          | approx[:tables=N,bits=M]
// Strategies: serial | tpq | pool | adaptive | sharded
//
// Each command reads every flag its usage lists before it does any work,
// and exits 2 naming a flag it did not read (a typo or a removed option).
#include <cstdio>
#include <string>

#include "core/engine_host.h"
#include "core/join.h"
#include "core/searcher.h"
#include "gen/city_generator.h"
#include "gen/dna_generator.h"
#include "gen/query_generator.h"
#include "gen/workload.h"
#include "io/reader.h"
#include "io/writer.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/kernel_dispatch.h"
#include "util/random.h"
#include "util/search_stats.h"
#include "util/stopwatch.h"

// Unwraps a Result into a declaration, or exits the subcommand with the
// error printed (CLI-flavored SSS_ASSIGN_OR_RETURN).
#define SSS_ASSIGN_OR_RETURN_CLI(decl, rexpr)                       \
  auto SSS_CONCAT(_cli_result_, __LINE__) = (rexpr);                \
  if (!SSS_CONCAT(_cli_result_, __LINE__).ok()) {                   \
    return Fail(SSS_CONCAT(_cli_result_, __LINE__).status());       \
  }                                                                 \
  decl = std::move(SSS_CONCAT(_cli_result_, __LINE__)).ValueUnsafe()

namespace sss::cli {
namespace {

// Keeps the latency-pass searches from being optimized away.
volatile size_t benchmark_results_sink_ = 0;

// Exit codes: 0 success, 1 generic error, 2 usage error, 3 I/O error,
// 4 search completed partially (deadline/cancellation truncated the batch),
// 5 service unavailable (shared with sss_server/sss_loadgen: the serving
// layer shed the request or the server is draining).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIOError = 3;
constexpr int kExitTruncated = 4;
constexpr int kExitUnavailable = 5;

int Usage() {
  std::fprintf(stderr,
               "usage: sss_cli <generate|search|join|stats> [flags]\n"
               "  generate --workload city|dna --count N [--seed S]\n"
               "           --out FILE [--queries N --queries-out FILE]\n"
               "  search   --data FILE --queries FILE [--default-k K]\n"
               "           [--engine SPEC]  one of: %s\n"
               "           [--strategy serial|tpq|pool|adaptive|sharded]\n"
               "           [--threads N] [--shard-size N] [--bucket-width N]\n"
               "           [--deadline-ms MS] [--max-line-bytes N]\n"
               "           [--out FILE] [--dna] [--latency]\n"
               "           [--kernel-tier auto|scalar|swar|avx2] (default auto)\n"
               "           [--stats] [--stats-json]\n"
               "  join     --data FILE --k K [--out FILE] [--threads N] [--dna]\n"
               "  stats    --data FILE [--dna] [--max-line-bytes N]\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 I/O error,\n"
               "            4 deadline truncated the search,\n"
               "            5 service unavailable (see sss_server)\n",
               KnownEngineSpecsHelp().c_str());
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (status.IsIOError()) return kExitIOError;
  if (status.IsUnavailable()) return kExitUnavailable;
  return kExitError;
}

// Reader limits from flags; exits with usage on a malformed value, so the
// result is delivered via out-parameter and the int return is the exit code
// (negative = keep going).
int LimitsFromFlags(const FlagSet& flags, ReaderLimits* out) {
  Result<int64_t> max_line = flags.GetInt("max-line-bytes", 0);
  if (!max_line.ok()) return Fail(max_line.status());
  if (*max_line < 0) {
    std::fprintf(stderr, "error: --max-line-bytes must be >= 0\n");
    return kExitUsage;
  }
  if (*max_line > 0) out->max_line_bytes = static_cast<size_t>(*max_line);
  return -1;
}

Result<ExecutionStrategy> ParseStrategy(const std::string& name) {
  if (name == "serial") return ExecutionStrategy::kSerial;
  if (name == "tpq") return ExecutionStrategy::kThreadPerQuery;
  if (name == "pool") return ExecutionStrategy::kFixedPool;
  if (name == "adaptive") return ExecutionStrategy::kAdaptive;
  if (name == "sharded") return ExecutionStrategy::kSharded;
  return Status::Invalid("unknown strategy '" + name + "'");
}

Result<AlphabetKind> AlphabetFromFlags(const FlagSet& flags) {
  Result<bool> dna = flags.GetBool("dna", false);
  if (!dna.ok()) return dna.status();
  return *dna ? AlphabetKind::kDna : AlphabetKind::kGeneric;
}

int RunGenerate(const FlagSet& flags) {
  SSS_ASSIGN_OR_RETURN_CLI(const std::string workload,
                           flags.GetString("workload", "city"));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t count, flags.GetInt("count", 10000));
  SSS_ASSIGN_OR_RETURN_CLI(
      int64_t seed,
      flags.GetInt("seed", static_cast<int64_t>(Xoshiro256::kDefaultSeed)));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string out, flags.GetString("out", ""));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t num_queries, flags.GetInt("queries", 0));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string queries_out,
                           flags.GetString("queries-out", ""));
  if (!RejectUnreadFlags(flags, "sss_cli generate")) return kExitUsage;
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return kExitUsage;
  }

  Dataset dataset;
  gen::WorkloadKind kind;
  if (workload == "city") {
    kind = gen::WorkloadKind::kCityNames;
    gen::CityGeneratorOptions options;
    options.num_strings = static_cast<size_t>(count);
    dataset =
        gen::CityNameGenerator(options, static_cast<uint64_t>(seed))
            .Generate();
  } else if (workload == "dna") {
    kind = gen::WorkloadKind::kDnaReads;
    gen::DnaGeneratorOptions options;
    options.num_reads = static_cast<size_t>(count);
    dataset =
        gen::DnaReadGenerator(options, static_cast<uint64_t>(seed))
            .Generate();
  } else {
    std::fprintf(stderr, "generate: unknown workload '%s'\n",
                 workload.c_str());
    return kExitUsage;
  }

  Status st = WriteDatasetFile(out, dataset);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu strings to %s\n", dataset.size(), out.c_str());

  if (num_queries > 0) {
    if (queries_out.empty()) {
      std::fprintf(stderr, "generate: --queries needs --queries-out\n");
      return kExitUsage;
    }
    gen::QueryGeneratorOptions q_options;
    q_options.num_queries = static_cast<size_t>(num_queries);
    q_options.thresholds = gen::ThresholdsFor(kind);
    const QuerySet queries = gen::MakeQuerySet(
        dataset, q_options, static_cast<uint64_t>(seed) ^ 0xABCD);
    st = WriteQueryFile(queries_out, queries);
    if (!st.ok()) return Fail(st);
    std::printf("wrote %zu queries to %s\n", queries.size(),
                queries_out.c_str());
  }
  return kExitOk;
}

int RunSearch(const FlagSet& flags) {
  SSS_ASSIGN_OR_RETURN_CLI(const std::string data_path,
                           flags.GetString("data", ""));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string query_path,
                           flags.GetString("queries", ""));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t default_k, flags.GetInt("default-k", 0));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t deadline_ms,
                           flags.GetInt("deadline-ms", 0));
  ReaderLimits limits;
  if (const int rc = LimitsFromFlags(flags, &limits); rc >= 0) return rc;
  SSS_ASSIGN_OR_RETURN_CLI(const AlphabetKind alphabet,
                           AlphabetFromFlags(flags));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string engine_flag,
                           flags.GetString("engine", "scan"));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string strategy_flag,
                           flags.GetString("strategy", "pool"));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t threads, flags.GetInt("threads", 0));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t shard_size, flags.GetInt("shard-size", 0));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t bucket_width,
                           flags.GetInt("bucket-width", 8));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string tier_flag,
                           flags.GetString("kernel-tier", "auto"));
  SSS_ASSIGN_OR_RETURN_CLI(const bool want_stats,
                           flags.GetBool("stats", false));
  SSS_ASSIGN_OR_RETURN_CLI(const bool want_stats_json,
                           flags.GetBool("stats-json", false));
  SSS_ASSIGN_OR_RETURN_CLI(const bool want_latency,
                           flags.GetBool("latency", false));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string out, flags.GetString("out", ""));
  if (!RejectUnreadFlags(flags, "sss_cli search")) return kExitUsage;

  if (data_path.empty() || query_path.empty()) {
    std::fprintf(stderr, "search: --data and --queries are required\n");
    return kExitUsage;
  }
  if (deadline_ms < 0) {
    std::fprintf(stderr, "search: --deadline-ms must be >= 0\n");
    return kExitUsage;
  }
  // The full spec grammar — approx:tables=8,bits=16 included — parses here,
  // so the CLI can drive any engine the server can (and a typo'd name gets
  // the registry-enumerating diagnostic).
  auto engine_spec = ParseEngineSpec(engine_flag);
  if (!engine_spec.ok()) return Fail(engine_spec.status());
  auto strategy = ParseStrategy(strategy_flag);
  if (!strategy.ok()) return Fail(strategy.status());
  const std::optional<KernelTierChoice> tier = ParseKernelTierChoice(tier_flag);
  if (!tier.has_value()) {
    std::fprintf(stderr,
                 "search: --kernel-tier must be scalar|swar|avx2|auto\n");
    return kExitUsage;
  }

  auto dataset = ReadDatasetFile(data_path, "cli_data", alphabet, limits);
  if (!dataset.ok()) return Fail(dataset.status());
  auto queries =
      ReadQueryFile(query_path, static_cast<int>(default_k), limits);
  if (!queries.ok()) return Fail(queries.status());

  Stopwatch build_timer;
  auto searcher =
      BuildEngineFromSpec(*engine_spec, CollectionSnapshot::Borrow(*dataset));
  if (!searcher.ok()) return Fail(searcher.status());
  const double build_seconds = build_timer.ElapsedSeconds();

  ExecutionOptions exec;
  exec.strategy = *strategy;
  exec.num_threads = static_cast<size_t>(threads);
  exec.shard_size = static_cast<size_t>(shard_size);
  exec.length_bucket_width =
      bucket_width > 0 ? static_cast<size_t>(bucket_width) : 8;

  SearchContext ctx;
  if (deadline_ms > 0) ctx.deadline = Deadline::AfterMillis(deadline_ms);
  ctx.kernel_tier = *tier;
  StatsSink sink;
  if (want_stats || want_stats_json) ctx.stats = &sink;

  // The paper's measurement (§5.2): only the result computation is timed.
  Stopwatch query_timer;
  const BatchResult batch = (*searcher)->SearchBatch(*queries, exec, ctx);
  const double query_seconds = query_timer.ElapsedSeconds();
  const SearchResults& results = batch.matches;

  size_t total_matches = 0;
  for (const MatchList& m : results) total_matches += m.size();
  std::printf(
      "engine=%s strings=%zu queries=%zu completed=%zu matches=%zu\n"
      "build_time=%.3fs query_time=%.3fs (%.3f ms/query)\n",
      (*searcher)->name().c_str(), dataset->size(), queries->size(),
      batch.completed, total_matches, build_seconds, query_seconds,
      queries->empty() ? 0.0
                       : query_seconds * 1e3 /
                             static_cast<double>(queries->size()));

  if (want_stats) {
    std::printf("%s\n", sink.Collected().ToString().c_str());
  }
  if (want_stats_json) {
    std::string json;
    json += "{\"schema_version\":1,\"engine\":\"";
    json += (*searcher)->name();
    json += "\",\"strategy\":\"";
    json += ToString(*strategy);
    json += "\"";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"queries\":%zu,\"completed\":%zu,\"matches\":%zu,"
                  "\"build_seconds\":%.6f,\"query_seconds\":%.6f,\"stats\":",
                  queries->size(), batch.completed, total_matches,
                  build_seconds, query_seconds);
    json += buf;
    sink.Collected().AppendJson(&json);
    json += "}";
    std::printf("%s\n", json.c_str());
  }

  // Optional per-query latency distribution (serial pass; the parallel
  // batch above reports throughput, this reports the tail). Recorded in
  // nanoseconds — integer microseconds would floor sub-µs queries to 0 —
  // and scaled to µs only for display.
  if (want_latency) {
    LatencyHistogram histogram;
    for (const Query& q : *queries) {
      Stopwatch t;
      benchmark_results_sink_ =
          benchmark_results_sink_ + (*searcher)->Search(q).size();
      histogram.Record(static_cast<uint64_t>(t.ElapsedNanos()));
    }
    std::printf("per-query latency: %s\n",
                histogram.ScaledSummary(1e3, "us").c_str());
  }

  if (!out.empty()) {
    Status st = WriteResultFile(out, results);
    if (!st.ok()) return Fail(st);
    std::printf("results written to %s\n", out.c_str());
  }
  if (batch.truncated) {
    std::fprintf(stderr,
                 "warning: deadline expired with %zu of %zu queries "
                 "answered; unanswered queries have empty result lines\n",
                 batch.completed, queries->size());
    return kExitTruncated;
  }
  return kExitOk;
}

int RunJoin(const FlagSet& flags) {
  SSS_ASSIGN_OR_RETURN_CLI(const std::string data_path,
                           flags.GetString("data", ""));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t k, flags.GetInt("k", 1));
  SSS_ASSIGN_OR_RETURN_CLI(int64_t threads, flags.GetInt("threads", 0));
  SSS_ASSIGN_OR_RETURN_CLI(const AlphabetKind alphabet,
                           AlphabetFromFlags(flags));
  SSS_ASSIGN_OR_RETURN_CLI(const std::string out, flags.GetString("out", ""));
  if (!RejectUnreadFlags(flags, "sss_cli join")) return kExitUsage;
  if (data_path.empty()) {
    std::fprintf(stderr, "join: --data is required\n");
    return kExitUsage;
  }

  auto dataset = ReadDatasetFile(data_path, "cli_data", alphabet);
  if (!dataset.ok()) return Fail(dataset.status());

  JoinOptions options;
  options.max_distance = static_cast<int>(k);
  options.exec = {ExecutionStrategy::kFixedPool,
                  static_cast<size_t>(threads)};
  Stopwatch timer;
  const std::vector<JoinPair> pairs = SimilaritySelfJoin(*dataset, options);
  std::printf("join k=%lld: %zu pairs in %.3fs\n",
              static_cast<long long>(k), pairs.size(),
              timer.ElapsedSeconds());

  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr) return Fail(Status::IOError("cannot open " + out));
    for (const auto& [a, b] : pairs) std::fprintf(f, "%u %u\n", a, b);
    std::fclose(f);
    std::printf("pairs written to %s\n", out.c_str());
  }
  return kExitOk;
}

int RunStats(const FlagSet& flags) {
  SSS_ASSIGN_OR_RETURN_CLI(const std::string data_path,
                           flags.GetString("data", ""));
  ReaderLimits limits;
  if (const int rc = LimitsFromFlags(flags, &limits); rc >= 0) return rc;
  SSS_ASSIGN_OR_RETURN_CLI(const AlphabetKind alphabet,
                           AlphabetFromFlags(flags));
  if (!RejectUnreadFlags(flags, "sss_cli stats")) return kExitUsage;
  if (data_path.empty()) {
    std::fprintf(stderr, "stats: --data is required\n");
    return kExitUsage;
  }
  auto dataset = ReadDatasetFile(data_path, "cli_data", alphabet, limits);
  if (!dataset.ok()) return Fail(dataset.status());
  const DatasetStats stats = dataset->ComputeStats();
  std::printf(
      "strings=%zu alphabet=%zu min_len=%zu max_len=%zu avg_len=%.2f "
      "bytes=%zu\n",
      stats.num_strings, stats.alphabet_size, stats.min_length,
      stats.max_length, stats.avg_length, stats.total_bytes);
  return kExitOk;
}

}  // namespace
}  // namespace sss::cli

int main(int argc, char** argv) {
  if (argc < 2) return sss::cli::Usage();
  const std::string command = argv[1];

  auto flags = sss::FlagSet::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return sss::cli::Fail(flags.status());

  if (command == "generate") return sss::cli::RunGenerate(*flags);
  if (command == "search") return sss::cli::RunSearch(*flags);
  if (command == "join") return sss::cli::RunJoin(*flags);
  if (command == "stats") return sss::cli::RunStats(*flags);
  return sss::cli::Usage();
}
