// perfbench_driver — the measuring half of the end-to-end benchmark (run.py
// builds it, calls it, and turns its JSON into the benchmark's report).
//
//   perfbench_driver prepare --workload W --seed N --dir D
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1 --dir D
//
// `prepare` generates the workload's corpora and query pool with sss::gen,
// writes them as the text files an operator would hand to sss_server, and
// computes every expected answer with the partition index — an engine other
// than the scan under test, driven by a different executor. `run` loads
// those files through EngineHost::LoadFile, serves them the way
// tools/sss_server and tools/sss_router do, drives the load, checks every
// answer against the reference and prints one JSON object.
//
// With --trace 1 the run measures twice: untraced first, then with spans
// around the public calls (kept in memory, written to spans.tsv at exit),
// StatsSinks attached, and a serial replay of the query pool on the served
// EngineSet. The per-layer numbers come from that second phase; the
// difference between the two phases is the tracing overhead.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "gen/query_generator.h"
#include "gen/workload.h"
#include "io/reader.h"
#include "io/snapshot.h"
#include "io/writer.h"
#include "server/client.h"
#include "server/router.h"
#include "server/server.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace {

using sss::AlphabetKind;
using sss::Dataset;
using sss::EngineHost;
using sss::MatchList;
using sss::QuerySet;
using sss::SearchStats;
using sss::StatsSink;
using sss::Status;
using sss::server::Request;
using sss::server::Response;
using sss::server::Server;

// Load shape. Four client threads and four connections: the box has four
// cores and the generator must not out-thread the system it measures.
// Each client sends bursts of kPipelineDepth requests and waits for every
// reply. An open loop was tried first: on a VM whose host steals CPU in
// minute-long episodes its p99 moved 3-8x between runs, a closed loop 1.2x.
constexpr int kClients = 4;
constexpr size_t kPipelineDepth = 8;
// Budget every request carries. Generous, so that a slow moment of a shared
// machine costs latency, not a degraded or cancelled answer.
constexpr uint32_t kRequestDeadlineMs = 5000;
constexpr double kReloadEverySeconds = 1.5;
constexpr double kWarmupSeconds = 3.0;
constexpr int kSetupRepeats = 31;
constexpr int kIdleReloads = 31;
// Largest share of client p50 on city_routed that router + engine +
// residual may leave unexplained before the reconciliation is flagged.
constexpr double kReconcileTolerance = 0.25;

constexpr size_t kDnaQueries = 400;
constexpr size_t kCityQueries = 4000;
constexpr double kTableIScale = 0.1;  // 75k reads / 40k city names
const uint8_t kScanId =
    static_cast<uint8_t>(sss::EngineKind::kSequentialScan);

enum class Workload { kDnaBatch, kCityServe, kCityRouted, kCityReload };

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Exact order statistics over raw samples (nearest rank, no interpolation,
// no histogram buckets).
class Dist {
 public:
  explicit Dist(std::vector<double> samples) : v_(std::move(samples)) {
    std::sort(v_.begin(), v_.end());
  }
  size_t n() const { return v_.size(); }
  double At(double pct) const {
    if (v_.empty()) return 0.0;
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n()));
    const size_t r = std::clamp<size_t>(static_cast<size_t>(rank), 1, n());
    return v_[r - 1];
  }
  /// Highest percentile with at least ten samples above it (0 when none).
  double Supported() const {
    if (n() <= 10) return 0.0;
    return std::floor(1000.0 * static_cast<double>(n() - 10) /
                      static_cast<double>(n())) /
           10.0;
  }

 private:
  std::vector<double> v_;
};

double Median(std::vector<double> v) { return Dist(std::move(v)).At(50); }

// Ordered name → number list, emitted as one JSON object.
class Fields {
 public:
  void Set(const std::string& name, double value) {
    for (auto& [k, v] : items_) {
      if (k == name) {
        v = value;
        return;
      }
    }
    items_.emplace_back(name, value);
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (const auto& [k, v] : items_) {
      if (out.size() > 1) out += ",";
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
      out += "\"" + k + "\":" + buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

// ---------------------------------------------------------------- tracing

// Spans around the public calls the benchmark makes, kept in memory and
// written at exit. Spans of one request share its request id; parents are
// resolved by interval containment within a request id at write time.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    uint64_t request;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void Add(const char* name, int64_t start, int64_t end, uint64_t request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, request});
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Durations (µs) of every span called `name`, keyed by request id.
  std::unordered_map<uint64_t, double> DurationsUs(const char* name) const {
    std::unordered_map<uint64_t, double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) {
        out[s.request] = 1e-3 * static_cast<double>(s.end - s.start);
      }
    }
    return out;
  }

  /// Writes one TSV row per span (with parent index and self time) to
  /// `path`, and returns {name: {count, p50_us, self_ms}} as JSON.
  std::string WriteAndSummarize(const std::string& path) const {
    std::vector<Span> spans = Snapshot();
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const Span& x = spans[a];
      const Span& y = spans[b];
      if (x.request != y.request) return x.request < y.request;
      if (x.start != y.start) return x.start < y.start;
      return x.end > y.end;
    });
    std::vector<long> parent(spans.size(), -1);
    std::vector<std::vector<size_t>> children(spans.size());
    std::vector<size_t> stack;
    for (size_t i : order) {
      const Span& s = spans[i];
      while (!stack.empty()) {
        const Span& top = spans[stack.back()];
        if (top.request == s.request && top.start <= s.start &&
            s.end <= top.end) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        parent[i] = static_cast<long>(stack.back());
        children[stack.back()].push_back(i);
      }
      stack.push_back(i);
    }
    int64_t origin = spans.empty() ? 0 : spans.front().start;
    for (const Span& s : spans) origin = std::min(origin, s.start);
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, double> self_ms;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "index\tname\trequest\tstart_us\tend_us\tparent\tself_us\n");
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Self time: the span minus the union of its children's intervals.
      int64_t covered = 0;
      int64_t reach = s.start;
      for (size_t c : children[i]) {  // children are in start order
        const int64_t b = std::max(spans[c].start, reach);
        const int64_t e = std::min(spans[c].end, s.end);
        if (e > b) covered += e - b;
        reach = std::max(reach, e);
      }
      const int64_t self = (s.end - s.start) - covered;
      durations[s.name].push_back(1e-3 * static_cast<double>(s.end - s.start));
      self_ms[s.name] += 1e-6 * static_cast<double>(self);
      if (f != nullptr) {
        std::fprintf(f, "%zu\t%s\t%llu\t%.3f\t%.3f\t%ld\t%.3f\n", i, s.name,
                     static_cast<unsigned long long>(s.request),
                     1e-3 * static_cast<double>(s.start - origin),
                     1e-3 * static_cast<double>(s.end - origin), parent[i],
                     1e-3 * static_cast<double>(self));
      }
    }
    if (f != nullptr) std::fclose(f);
    std::string out = "{";
    for (auto& [name, d] : durations) {
      Fields row;
      row.Set("count", static_cast<double>(d.size()));
      row.Set("p50_us", Dist(d).At(50));
      row.Set("self_ms", self_ms[name]);
      if (out.size() > 1) out += ",";
      out += "\"" + name + "\":" + row.Json();
    }
    return out + "}";
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Request ids of spans that belong to no client request.
constexpr uint64_t kSetupTag = uint64_t{1} << 60;
constexpr uint64_t kReloadTag = uint64_t{2} << 60;
constexpr uint64_t kBatchTag = uint64_t{3} << 60;
constexpr uint64_t kReplayTag = uint64_t{4} << 60;
// Client request ids of warm-up traffic, apart from the measured ones.
constexpr uint64_t kWarmupIds = uint64_t{1} << 56;

size_t CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

// Samples the process's thread count while a traced phase runs.
class ThreadSampler {
 public:
  explicit ThreadSampler(bool enabled) {
    if (!enabled) return;
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        peak_ = std::max(peak_, CountThreads());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  ~ThreadSampler() { Stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  std::atomic<bool> stop_{false};
  size_t peak_ = 0;  // written by the sampler, read after join
  std::thread thread_;
};

// ----------------------------------------------------------------- inputs

struct Args {
  std::string mode;
  std::string workload_name;
  Workload workload = Workload::kDnaBatch;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool IsCity(Workload w) { return w != Workload::kDnaBatch; }

std::string Path(const Args& a, const std::string& file) {
  return a.dir + "/" + file;
}

// The files a run serves: one corpus, two shard halves (city_routed), or
// the two generations city_reload alternates between.
std::vector<std::string> ServedFiles(const Args& a) {
  switch (a.workload) {
    case Workload::kCityRouted:
      return {Path(a, "shard0.txt"), Path(a, "shard1.txt")};
    case Workload::kCityReload:
      return {Path(a, "corpus0.txt"), Path(a, "corpus1.txt")};
    default:
      return {Path(a, "corpus0.txt")};
  }
}

// Keeps strings that survive a round trip through the line-oriented file
// format unchanged (non-empty, no line breaks).
Dataset Printable(const Dataset& in) {
  Dataset out(in.name(), in.alphabet());
  for (size_t i = 0; i < in.size(); ++i) {
    const std::string_view s = in.View(i);
    if (!s.empty() && s.find_first_of("\r\n") == std::string_view::npos) {
      out.Add(s);
    }
  }
  return out;
}

Dataset Slice(const Dataset& in, size_t begin, size_t end) {
  Dataset out(in.name(), in.alphabet());
  for (size_t i = begin; i < end; ++i) out.Add(in.View(i));
  return out;
}

QuerySet MakeQueries(const Dataset& corpus, Workload w, size_t count,
                     uint64_t seed) {
  sss::gen::QueryGeneratorOptions options;
  options.num_queries = count;
  options.thresholds = sss::gen::ThresholdsFor(
      IsCity(w) ? sss::gen::WorkloadKind::kCityNames
                : sss::gen::WorkloadKind::kDnaReads);
  QuerySet out;
  for (sss::Query& q : sss::gen::MakeQuerySet(corpus, options, seed)) {
    if (!q.text.empty() &&
        q.text.find_first_of("\t\r\n") == std::string::npos) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

void WriteCorpus(const std::string& path, const Dataset& d) {
  Check(sss::WriteDatasetFile(path, d), "write " + path);
  auto back = sss::ReadDatasetFile(path, d.name(), d.alphabet());
  Check(back.status(), "read back " + path);
  bool same = back->size() == d.size();
  for (size_t i = 0; same && i < d.size(); ++i) same = back->View(i) == d.View(i);
  if (!same) Die(path + " does not read back as written");
}

// Expected answers from the partition index on a fixed pool: an engine and
// an executor other than the ones under test.
std::vector<MatchList> Reference(const sss::SnapshotHandle& corpus,
                                 const QuerySet& qs) {
  auto engine = sss::MakeSearcher(sss::EngineKind::kPartitionIndex, corpus);
  Check(engine.status(), "build reference engine");
  sss::ExecutionOptions exec;
  exec.strategy = sss::ExecutionStrategy::kFixedPool;
  exec.num_threads = kClients;
  return (*engine)->SearchBatch(qs, exec);
}

void WriteReference(const std::string& path,
                    const std::vector<MatchList>& ref) {
  std::ofstream out(path);
  for (const MatchList& m : ref) {
    for (size_t i = 0; i < m.size(); ++i) out << (i ? " " : "") << m[i];
    out << "\n";
  }
  if (!out) Die("write " + path);
}

std::vector<MatchList> ReadReference(const std::string& path, size_t n) {
  std::ifstream in(path);
  std::vector<MatchList> ref;
  std::string line;
  while (std::getline(in, line)) {
    MatchList m;
    const char* p = line.c_str();
    char* end = nullptr;
    for (unsigned long v = std::strtoul(p, &end, 10); end != p;
         v = std::strtoul(p, &end, 10)) {
      m.push_back(static_cast<uint32_t>(v));
      p = end;
    }
    ref.push_back(std::move(m));
  }
  if (ref.size() != n) Die(path + ": expected " + std::to_string(n) + " rows");
  return ref;
}

void Prepare(const Args& a) {
  const bool city = IsCity(a.workload);
  const auto kind = city ? sss::gen::WorkloadKind::kCityNames
                         : sss::gen::WorkloadKind::kDnaReads;
  auto generate = [&](uint64_t seed) {
    return sss::CollectionSnapshot::Create(
        Printable(sss::gen::MakeWorkload(kind, kTableIScale, seed).dataset));
  };
  std::vector<sss::SnapshotHandle> corpora = {generate(a.seed)};
  QuerySet queries;
  if (a.workload == Workload::kCityReload) {
    // The second generation: same distribution, another sample.
    corpora.push_back(generate(a.seed ^ 0x9E3779B97F4A7C15));
    const QuerySet q0 = MakeQueries(corpora[0]->dataset(), a.workload,
                                    kCityQueries / 2, a.seed ^ 0x51);
    const QuerySet q1 = MakeQueries(corpora[1]->dataset(), a.workload,
                                    kCityQueries / 2, a.seed ^ 0x52);
    for (size_t i = 0; i < std::max(q0.size(), q1.size()); ++i) {
      if (i < q0.size()) queries.push_back(q0[i]);
      if (i < q1.size()) queries.push_back(q1[i]);
    }
  } else {
    queries = MakeQueries(corpora[0]->dataset(), a.workload,
                          city ? kCityQueries : kDnaQueries, a.seed ^ 0x51);
  }

  for (size_t c = 0; c < corpora.size(); ++c) {
    WriteCorpus(Path(a, "corpus" + std::to_string(c) + ".txt"),
                corpora[c]->dataset());
    WriteReference(Path(a, "ref" + std::to_string(c) + ".txt"),
                   Reference(corpora[c], queries));
  }
  if (a.workload == Workload::kCityRouted) {
    const Dataset& all = corpora[0]->dataset();
    WriteCorpus(Path(a, "shard0.txt"), Slice(all, 0, all.size() / 2));
    WriteCorpus(Path(a, "shard1.txt"), Slice(all, all.size() / 2, all.size()));
  }
  const std::string qpath = Path(a, "queries.txt");
  Check(sss::WriteQueryFile(qpath, queries), "write " + qpath);
  auto back = sss::ReadQueryFile(qpath, 0);
  Check(back.status(), "read back " + qpath);
  bool same = back->size() == queries.size();
  for (size_t i = 0; same && i < queries.size(); ++i) {
    same = (*back)[i].text == queries[i].text &&
           (*back)[i].max_distance == queries[i].max_distance;
  }
  if (!same) Die(qpath + " does not read back as written");
}

struct Inputs {
  Workload workload;
  std::vector<std::string> served;
  QuerySet queries;
  std::vector<std::vector<MatchList>> refs;  // [corpus][query]
};

Inputs LoadInputs(const Args& a) {
  Inputs in;
  in.workload = a.workload;
  in.served = ServedFiles(a);
  auto queries = sss::ReadQueryFile(Path(a, "queries.txt"), 0);
  Check(queries.status(), "read queries (run prepare first)");
  in.queries = std::move(*queries);
  const size_t ncorpora = a.workload == Workload::kCityReload ? 2 : 1;
  for (size_t c = 0; c < ncorpora; ++c) {
    in.refs.push_back(ReadReference(
        Path(a, "ref" + std::to_string(c) + ".txt"), in.queries.size()));
  }
  return in;
}

// ------------------------------------------------------------ measurement

// What one measured phase observed. e2e holds the end-to-end metrics,
// layers the per-layer ones (traced phase only), info the rest.
struct Phase {
  Fields e2e;
  Fields layers;
  Fields info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t warmup_failed = 0;
};

// Read / build / publish of every load a host performed.
struct HostSamples {
  std::vector<double> read_s, build_s, publish_ns;

  void Add(const EngineHost& host, int64_t load_ns) {
    const auto& c = host.counters();
    const double build = 1e-6 * static_cast<double>(c.last_build_micros.load());
    build_s.push_back(build);
    read_s.push_back(std::max(0.0, Seconds(load_ns) - build));
    publish_ns.push_back(static_cast<double>(c.last_publish_nanos.load()));
  }

  void Report(Fields* layers) const {
    layers->Set("host.read_s", Median(read_s));
    layers->Set("host.build_s", Median(build_s));
    layers->Set("host.publish_ns", Median(publish_ns));
  }
};

// Loads `path` into a new scan host, timed and traced.
std::unique_ptr<EngineHost> LoadHost(const std::string& path,
                                     AlphabetKind alphabet, SpanLog* spans,
                                     uint64_t tag, HostSamples* samples) {
  sss::EngineHostOptions options;
  options.alphabet = alphabet;
  auto host = std::make_unique<EngineHost>(
      std::vector<sss::EngineSpec>{
          sss::EngineSpec::For(sss::EngineKind::kSequentialScan)},
      options);
  const int64_t t0 = NowNs();
  Check(host->LoadFile(path), "load " + path);
  const int64_t t1 = NowNs();
  spans->Add("host.load_file", t0, t1, tag);
  samples->Add(*host, t1 - t0);
  return host;
}

// Kernel / engine funnel ratios from one counted pass.
void ReportFunnel(const SearchStats& s, double queries, double engine_s,
                  Fields* layers) {
  const auto verify = static_cast<double>(s.verify_calls);
  layers->Set("kernel.verify_calls", verify);
  layers->Set("kernel.early_abort_ratio",
              Ratio(static_cast<double>(s.dp_early_aborts), verify));
  layers->Set("kernel.simd_lane_ratio",
              Ratio(static_cast<double>(s.simd_lanes_verified), verify));
  layers->Set("kernel.pairs_per_s", Ratio(verify, engine_s));
  layers->Set("engine.candidates_per_query",
              Ratio(static_cast<double>(s.candidates_considered), queries));
  layers->Set("engine.length_filter_ratio",
              Ratio(static_cast<double>(s.length_filter_rejects),
                    static_cast<double>(s.candidates_considered)));
  layers->Set("engine.match_yield",
              Ratio(static_cast<double>(s.matches_found), verify));
}

// Serial replay of the query pool on `host`'s served generation: engine
// time per query with no server, router or executor around it.
std::vector<double> Replay(const EngineHost& host, const QuerySet& queries,
                           const std::vector<MatchList>& ref, StatsSink* sink,
                           SpanLog* spans, uint64_t* mismatches) {
  const sss::EngineSetHandle set = host.Acquire();
  const sss::Searcher* engine = set->Find(kScanId);
  sss::SearchContext ctx;
  ctx.stats = sink;
  std::vector<double> us(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    MatchList out;
    const int64_t t0 = NowNs();
    const Status st = engine->Search(queries[q], ctx, &out);
    const int64_t t1 = NowNs();
    spans->Add("replay.search", t0, t1, kReplayTag | q);
    us[q] = 1e-3 * static_cast<double>(t1 - t0);
    if (!st.ok() || out != ref[q]) ++*mismatches;
  }
  return us;
}

// -------------------------------------------------------------- dna_batch

Phase RunDnaBatch(const Inputs& in, double seconds, bool traced,
                  SpanLog* spans) {
  Phase ph;
  HostSamples hs;
  std::vector<double> setup_s;
  std::unique_ptr<EngineHost> host;
  for (int r = 0; r < kSetupRepeats; ++r) {
    host.reset();
    const int64_t t0 = NowNs();
    host = LoadHost(in.served[0], AlphabetKind::kDna, spans, kSetupTag | r, &hs);
    const int64_t t1 = NowNs();
    spans->Add("setup", t0, t1, kSetupTag | r);
    setup_s.push_back(Seconds(t1 - t0));
  }

  const sss::EngineSetHandle set = host->Acquire();
  const sss::Searcher* engine = set->Find(kScanId);
  sss::ExecutionOptions exec;
  exec.strategy = sss::ExecutionStrategy::kSharded;
  exec.num_threads = kClients;
  sss::SearchContext ctx;
  ctx.kernel_tier = sss::KernelTierChoice::kAuto;
  const size_t nq = in.queries.size();

  auto check = [&](const sss::BatchResult& r) {
    uint64_t bad = 0;
    for (size_t q = 0; q < nq; ++q) {
      if (!r.statuses[q].ok() || r.matches[q] != in.refs[0][q]) ++bad;
    }
    return bad;
  };
  ph.warmup_failed += check(engine->SearchBatch(in.queries, exec, ctx));

  StatsSink batch_sink;
  if (traced) ctx.stats = &batch_sink;
  ThreadSampler sampler(traced);
  std::vector<double> batch_ms;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  int64_t t_last = t0;
  while (Seconds(t_last - t0) < seconds) {
    const int64_t b0 = NowNs();
    const sss::BatchResult r = engine->SearchBatch(in.queries, exec, ctx);
    t_last = NowNs();
    spans->Add("batch", b0, t_last, kBatchTag | batch_ms.size());
    batch_ms.push_back(1e-6 * static_cast<double>(t_last - b0));
    ph.failed += check(r);
    ph.attempted += nq;
  }
  const double cpu_s = CpuSeconds() - cpu0;
  const double wall_s = Seconds(t_last - t0);
  const size_t threads_peak = sampler.Stop();

  std::vector<double> reload_s;
  for (int r = 0; r < kIdleReloads; ++r) {
    const int64_t r0 = NowNs();
    Check(host->Reload(), "reload");
    const int64_t r1 = NowNs();
    spans->Add("host.reload", r0, r1, kReloadTag | r);
    hs.Add(*host, r1 - r0);
    reload_s.push_back(Seconds(r1 - r0));
  }

  const double completed = static_cast<double>(ph.attempted - ph.failed);
  const Dist lat(batch_ms);
  ph.e2e.Set("setup_s", Median(setup_s));
  ph.e2e.Set("qps", completed / wall_s);
  ph.e2e.Set("p50_ms", lat.At(50));
  ph.e2e.Set("p99_ms", lat.At(99));
  ph.e2e.Set("reload_s", Median(reload_s));
  ph.e2e.Set("cpu_ms_per_query", 1e3 * cpu_s / std::max(1.0, completed));
  ph.e2e.Set("rss_mb", PeakRssMb());
  ph.info.Set("latency_samples", static_cast<double>(lat.n()));
  ph.info.Set("latency_supported_pct", lat.Supported());
  ph.info.Set("batches", static_cast<double>(batch_ms.size()));
  ph.info.Set("batch_queries", static_cast<double>(nq));
  ph.info.Set("reloads", static_cast<double>(reload_s.size()));
  if (!traced) return ph;

  // No server, router or open-loop generator takes part in this workload.
  for (const char* name :
       {"server.window_depth_mean", "server.windowed_ratio",
        "server.shed_ratio", "server.bytes_per_request", "client.send_us",
        "server.residual_p50_us", "router.dispatch_p50_us",
        "router.dispatch_p99_us", "router.residual_p50_us",
        "router.multiplexed_ratio", "router.retries",
        "router.hedges_fired"}) {
    ph.layers.Set(name, 0.0);
  }

  // Per-layer numbers. Batch counters are per batch, so they repeat
  // exactly for a seed however many batches the run fitted in.
  const double batches = static_cast<double>(batch_ms.size());
  const SearchStats s = batch_sink.Collected();
  SearchStats per_batch;
#define SSS_PER_BATCH(name) \
  per_batch.name = s.name / static_cast<uint64_t>(batch_ms.size());
  SSS_FOR_EACH_SEARCH_STAT(SSS_PER_BATCH)
#undef SSS_PER_BATCH
  const double batch_s = 1e-3 * Median(batch_ms);
  ReportFunnel(per_batch, static_cast<double>(nq), batch_s, &ph.layers);

  StatsSink replay_sink;
  uint64_t replay_bad = 0;
  const std::vector<double> replay_us =
      Replay(*host, in.queries, in.refs[0], &replay_sink, spans, &replay_bad);
  ph.failed += replay_bad;
  const Dist engine_us(replay_us);
  double replay_total_s = 0;
  for (double us : replay_us) replay_total_s += 1e-6 * us;
  ph.layers.Set("engine.search_p50_us", engine_us.At(50));
  ph.layers.Set("engine.search_p99_us", engine_us.At(99));

  ph.layers.Set("executor.batch_s", batch_s);
  ph.layers.Set("executor.steal_ratio",
                Ratio(static_cast<double>(s.tasks_stolen),
                      static_cast<double>(s.tasks_executed)));
  ph.layers.Set("executor.pool_opens",
                Ratio(static_cast<double>(s.pool_opens), batches));
  ph.layers.Set("executor.planner_skip_ratio",
                Ratio(static_cast<double>(s.planner_skipped_queries),
                      batches * static_cast<double>(nq)));
  ph.layers.Set("executor.parallel_efficiency",
                Ratio(replay_total_s, batch_s * kClients));
  hs.Report(&ph.layers);
  ph.layers.Set("host.reloads_failed",
                static_cast<double>(host->counters().reloads_failed.load()));
  ph.layers.Set("proc.threads_peak", static_cast<double>(threads_peak));
  ph.layers.Set("gen.offered_qps", completed / wall_s);
  ph.layers.Set("gen.achieved_qps", completed / wall_s);
  return ph;
}

// ------------------------------------------------------------ city_* runs

// The served system of one city run: a direct server over one host, or a
// front server whose handler fans out through a Router to two shard
// servers. Members are destroyed front first, hosts last.
struct Served {
  std::vector<std::unique_ptr<EngineHost>> hosts;
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<sss::server::Router> router;
  std::unique_ptr<Server> front;
  uint16_t port = 0;
  uint32_t shard1_base = 0;  // global id of shard 1's first string
};

std::unique_ptr<Served> SetUp(const Inputs& in, StatsSink* server_sink,
                              SpanLog* spans, uint64_t tag,
                              HostSamples* hs) {
  auto s = std::make_unique<Served>();
  const bool routed = in.workload == Workload::kCityRouted;
  for (size_t i = 0; i < (routed ? 2u : 1u); ++i) {
    s->hosts.push_back(
        LoadHost(in.served[i], AlphabetKind::kGeneric, spans, tag, hs));
    sss::server::ServerOptions options;  // sss_server defaults
    if (!routed) options.stats = server_sink;
    auto server = std::make_unique<Server>(options);
    Check(server->RegisterHost(s->hosts.back().get()), "register host");
    const int64_t t0 = NowNs();
    Check(server->Start(), "start server");
    spans->Add("server.start", t0, NowNs(), tag);
    s->servers.push_back(std::move(server));
  }
  if (!routed) {
    s->port = s->servers[0]->port();
    return s;
  }
  s->shard1_base = static_cast<uint32_t>(
      s->hosts[0]->Acquire()->snapshot->dataset().size());
  const int64_t t0 = NowNs();
  s->router = std::make_unique<sss::server::Router>(
      sss::server::ShardSet({{"127.0.0.1", s->servers[0]->port(), 0},
                             {"127.0.0.1", s->servers[1]->port(),
                              s->shard1_base}}),
      sss::server::RouterOptions{});  // sss_router defaults
  sss::server::ServerOptions options;
  options.worker_threads = 32;  // sss_router's --workers default
  options.stats = server_sink;
  s->front = std::make_unique<Server>(options);
  sss::server::Router* router = s->router.get();
  if (spans->enabled()) {
    Check(s->front->RegisterHandler([router, spans](const Request& r) {
      const int64_t d0 = NowNs();
      Response response = router->Dispatch(r);
      spans->Add("router.dispatch", d0, NowNs(), r.request_id);
      return response;
    }), "register handler");
  } else {
    Check(s->front->RegisterHandler(
              [router](const Request& r) { return router->Dispatch(r); }),
          "register handler");
  }
  Check(s->front->Start(), "start front server");
  spans->Add("router.start", t0, NowNs(), tag);
  s->port = s->front->port();
  return s;
}

// How a request ended, short of comparing its answer.
enum class Outcome { kLost, kStatus, kDegraded, kAnswered };

// One request as the client saw it.
struct Sample {
  uint64_t request_id = 0;
  uint32_t query = 0;
  int64_t sent = 0;  // send start
  int64_t done = 0;
  uint64_t generation = 0;
  // kLost: no response (transport error); kStatus: a non-OK code;
  // kDegraded: flagged degraded or missing a shard.
  Outcome outcome = Outcome::kLost;
  bool match[2] = {false, false};  // equals the reference of corpus 0 / 1
};

// One client connection: a batch client that sends kPipelineDepth requests
// back to back and waits for all their replies before the next burst, until
// `t_end`.
void DriveConnection(int conn, sss::server::Client* client, const Inputs& in,
                     uint64_t seed, uint64_t id_base, int64_t t_end,
                     SpanLog* spans, std::vector<Sample>* out) {
  sss::Xoshiro256 rng(seed * 8 + static_cast<uint64_t>(conn) + 1);
  const bool routed = in.workload == Workload::kCityRouted;
  uint64_t seq = 0;
  std::unordered_map<uint64_t, Sample> pending;
  auto lose_pending = [&] {  // a broken connection answers nothing more
    for (auto& [id, s] : pending) {
      s.done = NowNs();
      out->push_back(s);
    }
  };
  while (NowNs() < t_end) {
    for (size_t i = 0; i < kPipelineDepth; ++i) {
      Sample s;
      s.query = static_cast<uint32_t>(rng.Uniform(in.queries.size()));
      s.request_id = id_base | (static_cast<uint64_t>(conn + 1) << 40) | ++seq;
      Request request;
      request.request_id = s.request_id;
      request.k = static_cast<uint32_t>(in.queries[s.query].max_distance);
      request.deadline_ms = kRequestDeadlineMs;
      request.query = in.queries[s.query].text;
      s.sent = NowNs();
      if (!client->Send(std::move(request)).ok()) {
        s.done = NowNs();
        out->push_back(s);
        lose_pending();
        return;
      }
      spans->Add("client.send", s.sent, NowNs(), s.request_id);
      pending.emplace(s.request_id, s);
    }
    while (!pending.empty()) {
      Response response;
      const Status st = client->Receive(&response);
      const int64_t done = NowNs();
      const auto it =
          st.ok() ? pending.find(response.request_id) : pending.end();
      if (it == pending.end()) {
        lose_pending();
        return;
      }
      Sample s = it->second;
      pending.erase(it);
      s.done = done;
      s.generation = response.generation;
      s.outcome =
          response.code != sss::StatusCode::kOk ? Outcome::kStatus
          : response.degraded || (routed && response.shards.size() != 2)
              ? Outcome::kDegraded
              : Outcome::kAnswered;
      for (size_t c = 0;
           s.outcome == Outcome::kAnswered && c < in.refs.size(); ++c) {
        s.match[c] = response.matches == in.refs[c][s.query];
      }
      spans->Add("client.request", s.sent, done, s.request_id);
      out->push_back(s);
    }
  }
}

// Reloads performed while a load runs (city_reload).
struct Reloads {
  std::vector<double> seconds;
  std::vector<std::pair<int64_t, int64_t>> windows;
};

// Runs kClients connections for `seconds`. On city_reload the calling
// thread republishes the other corpus every kReloadEverySeconds meanwhile,
// recording which corpus each generation serves.
std::vector<Sample> RunLoad(const Inputs& in, Served* served,
                            double seconds, uint64_t seed, uint64_t id_base, SpanLog* spans,
                            bool reload,
                            std::map<uint64_t, size_t>* corpus_of,
                            size_t* current, Reloads* reloads,
                            HostSamples* hs) {
  sss::server::ClientOptions copts;
  copts.default_timeout_ms = 10000;
  std::vector<sss::server::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = sss::server::Client::Connect("127.0.0.1", served->port, copts);
    Check(client.status(), "connect");
    clients.push_back(std::move(*client));
  }
  std::vector<std::vector<Sample>> per(kClients);
  const int64_t t0 = NowNs() + 1000000;
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(c, &clients[c], in, seed, id_base, t_end, spans,
                      &per[c]);
    });
  }
  if (reload) {
    Server& server = *served->servers[0];
    for (int i = 0;; ++i) {
      const int64_t at =
          t0 + static_cast<int64_t>((i + 0.5) * kReloadEverySeconds * 1e9);
      if (at > t_end - 500000000) break;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(at)));
      const size_t next = 1 - *current;
      const int64_t r0 = NowNs();
      Check(server.Reload(in.served[next]), "reload");
      const int64_t r1 = NowNs();
      spans->Add("server.reload", r0, r1, kReloadTag | i);
      hs->Add(*served->hosts[0], r1 - r0);
      (*corpus_of)[served->hosts[0]->generation()] = next;
      *current = next;
      reloads->seconds.push_back(Seconds(r1 - r0));
      reloads->windows.emplace_back(r0, r1);
    }
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

bool Correct(const Sample& s, const std::map<uint64_t, size_t>& corpus_of,
             bool by_generation) {
  if (s.outcome != Outcome::kAnswered) return false;
  if (!by_generation) return s.match[0];
  const auto it = corpus_of.find(s.generation);
  return it != corpus_of.end() && s.match[it->second];
}

Phase RunCity(const Inputs& in, double seconds, uint64_t seed, bool traced,
              SpanLog* spans) {
  Phase ph;
  const bool routed = in.workload == Workload::kCityRouted;
  const bool reload = in.workload == Workload::kCityReload;

  StatsSink server_sink;
  HostSamples hs;
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served.reset();
    const int64_t t0 = NowNs();
    served = SetUp(in, traced ? &server_sink : nullptr, spans, kSetupTag | r,
                   &hs);
    const int64_t t1 = NowNs();
    spans->Add("setup", t0, t1, kSetupTag | r);
    setup_s.push_back(Seconds(t1 - t0));
  }

  std::map<uint64_t, size_t> corpus_of;
  size_t current = 0;
  corpus_of[served->hosts[0]->generation()] = 0;
  Reloads reloads;
  {  // Warm-up: connections, worker executors, CPU clock.
    SpanLog quiet(false);
    for (const Sample& s :
         RunLoad(in, served.get(), kWarmupSeconds, seed ^ 0xA11CE,
                 kWarmupIds, &quiet, false, &corpus_of, &current, &reloads,
                 &hs)) {
      if (!Correct(s, corpus_of, reload)) ++ph.warmup_failed;
    }
  }
  const SearchStats server_before = server_sink.Collected();
  const auto& sc = routed ? served->front->counters()
                          : served->servers[0]->counters();
  const uint64_t ok_before = sc.requests_ok.load();
  const uint64_t shed_before = sc.requests_shed.load();
  const uint64_t bytes_before = sc.bytes_in.load() + sc.bytes_out.load();

  struct RouterCount {
    uint64_t requests, multiplexed, retries, hedges;
  };
  auto router_count = [&]() -> RouterCount {
    if (!routed) return {0, 0, 0, 0};
    const auto& rc = served->router->counters();
    return {rc.requests.load(), rc.channel_multiplexed.load(),
            rc.retries.load(), rc.hedges_fired.load()};
  };
  const RouterCount router_before = router_count();

  ThreadSampler sampler(traced);
  const double cpu0 = CpuSeconds();
  const std::vector<Sample> samples =
      RunLoad(in, served.get(), seconds, seed, 0, spans, reload,
              &corpus_of, &current, &reloads, &hs);
  const double cpu_s = CpuSeconds() - cpu0;
  const size_t threads_peak = sampler.Stop();

  std::vector<double> latency_ms;
  int64_t t_first = INT64_MAX;
  int64_t t_last = 0;
  uint64_t failed_by[4] = {0, 0, 0, 0};  // Outcome; kAnswered = mismatch
  for (const Sample& s : samples) {
    ++ph.attempted;
    t_first = std::min(t_first, s.sent);
    t_last = std::max(t_last, s.done);
    if (!Correct(s, corpus_of, reload)) {
      ++failed_by[static_cast<int>(s.outcome)];
      ++ph.failed;
      continue;
    }
    latency_ms.push_back(1e-6 * static_cast<double>(s.done - s.sent));
  }
  const double wall_s = samples.empty() ? 0.0 : Seconds(t_last - t_first);
  const double completed = static_cast<double>(latency_ms.size());

  if (!reload) {  // idle reloads, so reload_s is measured everywhere
    for (int r = 0; r < kIdleReloads; ++r) {
      const size_t i = static_cast<size_t>(r) % served->servers.size();
      const int64_t r0 = NowNs();
      Check(served->servers[i]->Reload(in.served[i]), "reload");
      const int64_t r1 = NowNs();
      spans->Add("server.reload", r0, r1, kReloadTag | r);
      hs.Add(*served->hosts[i], r1 - r0);
      reloads.seconds.push_back(Seconds(r1 - r0));
    }
  }

  const Dist lat(latency_ms);
  ph.e2e.Set("setup_s", Median(setup_s));
  ph.e2e.Set("qps", completed / wall_s);
  ph.e2e.Set("p50_ms", lat.At(50));
  ph.e2e.Set("p99_ms", lat.At(99));
  ph.e2e.Set("reload_s", Median(reloads.seconds));
  ph.e2e.Set("cpu_ms_per_query", 1e3 * cpu_s / std::max(1.0, completed));
  ph.e2e.Set("rss_mb", PeakRssMb());
  ph.info.Set("latency_samples", static_cast<double>(lat.n()));
  ph.info.Set("latency_supported_pct", lat.Supported());
  ph.info.Set("reloads", static_cast<double>(reloads.seconds.size()));
  ph.info.Set("failed_lost", static_cast<double>(failed_by[0]));
  ph.info.Set("failed_status", static_cast<double>(failed_by[1]));
  ph.info.Set("failed_degraded", static_cast<double>(failed_by[2]));
  ph.info.Set("failed_mismatch", static_cast<double>(failed_by[3]));
  if (!traced) return ph;

  // ---- per-layer numbers from the traced phase
  StatsSink replay_sink;
  uint64_t replay_bad = 0;
  std::vector<double> slowest(in.queries.size(), 0.0);  // µs per query
  double replay_total_s = 0;
  for (size_t i = 0; i < served->hosts.size(); ++i) {
    // The reference is in global ids; a shard answers in its own.
    std::vector<MatchList> shard_ref = in.refs[reload ? current : 0];
    if (routed) {
      const uint32_t lo = i == 0 ? 0 : served->shard1_base;
      const uint32_t hi = i == 0 ? served->shard1_base : UINT32_MAX;
      for (MatchList& m : shard_ref) {
        MatchList local;
        for (uint32_t id : m) {
          if (id >= lo && id < hi) local.push_back(id - lo);
        }
        m = std::move(local);
      }
    }
    const std::vector<double> us = Replay(*served->hosts[i], in.queries,
                                          shard_ref, &replay_sink, spans,
                                          &replay_bad);
    for (size_t q = 0; q < us.size(); ++q) {
      slowest[q] = std::max(slowest[q], us[q]);
      replay_total_s += 1e-6 * us[q];
    }
  }
  ph.failed += replay_bad;
  const SearchStats funnel = replay_sink.Collected();
  ReportFunnel(funnel, static_cast<double>(in.queries.size()), replay_total_s,
               &ph.layers);
  const Dist engine_us(slowest);
  ph.layers.Set("engine.search_p50_us", engine_us.At(50));
  ph.layers.Set("engine.search_p99_us", engine_us.At(99));

  SearchStats sv = server_sink.Collected();
  {
    SearchStats delta;
#define SSS_DELTA(name) delta.name = sv.name - server_before.name;
    SSS_FOR_EACH_SEARCH_STAT(SSS_DELTA)
#undef SSS_DELTA
    sv = delta;
  }
  const double windows = static_cast<double>(sv.server_windows_batched);
  const double windowed = static_cast<double>(sv.server_window_depth_sum);
  const double ok_n = static_cast<double>(sc.requests_ok.load() - ok_before);
  const double shed_n =
      static_cast<double>(sc.requests_shed.load() - shed_before);
  double engine_work_s = 0;  // serial engine time of the answered requests
  for (const Sample& s : samples) {
    if (Correct(s, corpus_of, reload)) engine_work_s += 1e-6 * slowest[s.query];
  }
  ph.layers.Set("executor.batch_s", 0.0);
  ph.layers.Set("executor.steal_ratio",
                Ratio(static_cast<double>(sv.tasks_stolen),
                      static_cast<double>(sv.tasks_executed)));
  ph.layers.Set("executor.pool_opens",
                Ratio(static_cast<double>(sv.pool_opens), windows));
  ph.layers.Set("executor.planner_skip_ratio",
                Ratio(static_cast<double>(sv.planner_skipped_queries),
                      windowed));
  ph.layers.Set("executor.parallel_efficiency",
                Ratio(engine_work_s, wall_s * kClients));
  hs.Report(&ph.layers);
  uint64_t reloads_failed = 0;
  for (const auto& h : served->hosts) {
    reloads_failed += h->counters().reloads_failed.load();
  }
  ph.layers.Set("host.reloads_failed", static_cast<double>(reloads_failed));

  ph.layers.Set("server.window_depth_mean", Ratio(windowed, windows));
  ph.layers.Set("server.windowed_ratio", Ratio(windowed, ok_n));
  ph.layers.Set("server.shed_ratio", Ratio(shed_n, ok_n + shed_n));
  ph.layers.Set("server.bytes_per_request",
                Ratio(static_cast<double>(sc.bytes_in.load() +
                                          sc.bytes_out.load() - bytes_before),
                      ok_n + shed_n));
  std::vector<double> send_us;
  for (const auto& [id, us] : spans->DurationsUs("client.send")) {
    send_us.push_back(us);
  }
  ph.layers.Set("client.send_us", Dist(send_us).At(50));

  // Client-side service time (send start to response), per request.
  std::vector<double> client_us;
  std::vector<double> between_us;  // city_reload: outside reload windows
  for (const Sample& s : samples) {
    if (!Correct(s, corpus_of, reload)) continue;
    const double us = 1e-3 * static_cast<double>(s.done - s.sent);
    client_us.push_back(us);
    bool during = false;
    for (const auto& [r0, r1] : reloads.windows) {
      during = during || (s.done >= r0 && s.sent <= r1 + 100000000);
    }
    if (!during) between_us.push_back(us);
  }
  const double client_p50 = Dist(client_us).At(50);
  double residual = Dist(between_us).At(50) - engine_us.At(50);

  double dispatch_p50 = 0, dispatch_p99 = 0, router_res = 0;
  if (routed) {
    const auto dispatch = spans->DurationsUs("router.dispatch");
    std::vector<double> d, router_residual, front_residual, engine_slowest;
    for (const Sample& s : samples) {
      const auto it = dispatch.find(s.request_id);
      if (!Correct(s, corpus_of, false) || it == dispatch.end()) continue;
      d.push_back(it->second);
      router_residual.push_back(it->second - slowest[s.query]);
      front_residual.push_back(1e-3 * static_cast<double>(s.done - s.sent) -
                               it->second);
      engine_slowest.push_back(slowest[s.query]);
    }
    const Dist dd(d);
    dispatch_p50 = dd.At(50);
    dispatch_p99 = dd.At(99);
    router_res = Dist(router_residual).At(50);
    residual = Dist(front_residual).At(50);
    const double engine_p50 = Dist(engine_slowest).At(50);
    const double unexplained = client_p50 - (engine_p50 + router_res + residual);
    ph.info.Set("reconcile.client_p50_us", client_p50);
    ph.info.Set("reconcile.engine_p50_us", engine_p50);
    ph.info.Set("reconcile.router_residual_p50_us", router_res);
    ph.info.Set("reconcile.server_residual_p50_us", residual);
    ph.info.Set("reconcile.unexplained_us", unexplained);
    ph.info.Set("reconcile.unexplained_share", Ratio(unexplained, client_p50));
    ph.info.Set("reconcile.tolerance", kReconcileTolerance);
  }
  ph.layers.Set("server.residual_p50_us", residual);
  ph.layers.Set("router.dispatch_p50_us", dispatch_p50);
  ph.layers.Set("router.dispatch_p99_us", dispatch_p99);
  ph.layers.Set("router.residual_p50_us", router_res);
  const RouterCount router_after = router_count();
  ph.layers.Set("router.multiplexed_ratio",
                Ratio(static_cast<double>(router_after.multiplexed -
                                          router_before.multiplexed),
                      2.0 * static_cast<double>(router_after.requests -
                                                router_before.requests)));
  ph.layers.Set("router.retries", static_cast<double>(router_after.retries -
                                                      router_before.retries));
  ph.layers.Set("router.hedges_fired",
                static_cast<double>(router_after.hedges -
                                    router_before.hedges));
  ph.layers.Set("proc.threads_peak", static_cast<double>(threads_peak));
  ph.layers.Set("gen.offered_qps",
                static_cast<double>(ph.attempted) / wall_s);
  ph.layers.Set("gen.achieved_qps", completed / wall_s);
  return ph;
}

Phase RunPhase(const Inputs& in, const Args& a, bool traced, SpanLog* spans) {
  return in.workload == Workload::kDnaBatch
             ? RunDnaBatch(in, a.seconds, traced, spans)
             : RunCity(in, a.seconds, a.seed, traced, spans);
}

int Run(const Args& a) {
  const Inputs in = LoadInputs(a);
  SpanLog untraced(false);
  Phase plain = RunPhase(in, a, false, &untraced);
  Phase traced;
  std::string spans_json = "{}";
  if (a.trace) {
    SpanLog spans(true);
    traced = RunPhase(in, a, true, &spans);
    spans_json = spans.WriteAndSummarize(Path(a, "spans.tsv"));
  }
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  const bool correct =
      failed == 0 && plain.warmup_failed == 0 && traced.warmup_failed == 0;
  plain.info.Set("error_ratio", Ratio(static_cast<double>(plain.failed),
                                      static_cast<double>(plain.attempted)));
  plain.info.Set("warmup_failed", static_cast<double>(plain.warmup_failed +
                                                      traced.warmup_failed));
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,"
      "\"info\":%s,\"e2e_traced\":%s,\"layers\":%s,\"info_traced\":%s,"
      "\"spans\":%s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), plain.e2e.Json().c_str(),
      plain.info.Json().c_str(), traced.e2e.Json().c_str(),
      traced.layers.Json().c_str(), traced.info.Json().c_str(),
      spans_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_driver prepare|run --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload_name = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--dir") {
      a.dir = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  static const std::map<std::string, Workload> kNames = {
      {"dna_batch", Workload::kDnaBatch},
      {"city_serve", Workload::kCityServe},
      {"city_routed", Workload::kCityRouted},
      {"city_reload", Workload::kCityReload}};
  const auto it = kNames.find(a.workload_name);
  if (it == kNames.end()) Die("unknown workload '" + a.workload_name + "'");
  a.workload = it->second;
  if (a.dir.empty()) Die("--dir is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "prepare") {
    Prepare(a);
    return 0;
  }
  if (a.mode == "run") return Run(a);
  Die("unknown mode '" + a.mode + "'");
}
