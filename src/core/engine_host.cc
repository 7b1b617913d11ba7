#include "core/engine_host.h"

#include <cstdlib>
#include <utility>

#include "approx/approx_searcher.h"
#include "core/auto_searcher.h"
#include "io/reader.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace sss {
namespace {

// The registry every ParseEngineSpec diagnostic enumerates. `make` returns
// the optionless base spec; option handling (only approx has options) is
// layered on top so a typo'd option lists what the spec actually accepts.
struct EngineSpecEntry {
  const char* name;
  const char* syntax;       // what --engine accepts, options included
  const char* description;  // one line for help text and error messages
  EngineSpec (*make)();
};

constexpr EngineSpecEntry kEngineSpecRegistry[] = {
    {"scan", "scan", "exact sequential scan (the paper's optimized baseline)",
     [] { return EngineSpec::For(EngineKind::kSequentialScan); }},
    {"trie", "trie", "exact prefix-trie index",
     [] { return EngineSpec::For(EngineKind::kTrieIndex); }},
    {"ctrie", "ctrie", "exact compressed (path-collapsed) trie index",
     [] { return EngineSpec::For(EngineKind::kCompressedTrieIndex); }},
    {"partition", "partition", "exact pigeonhole partition index",
     [] { return EngineSpec::For(EngineKind::kPartitionIndex); }},
    {"auto", "auto",
     "dataset-profiled scan/trie router with deadline degradation",
     [] { return EngineSpec::Auto(); }},
    {"approx", "approx[:tables=N,bits=M]",
     "CGK+LSH approximate tier (tunable recall, exact-verified matches)",
     [] { return EngineSpec::Approx(); }},
};

// Parses the `key=value,key=value` tail of an approx spec into `spec`.
Status ParseApproxOptions(const std::string& options, EngineSpec* spec) {
  size_t pos = 0;
  while (pos <= options.size()) {
    const size_t comma = std::min(options.find(',', pos), options.size());
    const std::string item = options.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0 ||
        eq + 1 == item.size()) {
      return Status::Invalid("malformed option '" + item +
                             "' in engine spec 'approx:" + options +
                             "' (expected key=value); accepted options: "
                             "tables=N (1..1024), bits=M (1..64)");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return Status::Invalid("option '" + key + "' in engine spec 'approx:" +
                             options + "' needs an unsigned integer, got '" +
                             value + "'");
    }
    if (key == "tables") {
      if (parsed < 1 || parsed > 1024) {
        return Status::Invalid("approx tables=" + value +
                               " out of range (1..1024)");
      }
      spec->approx_tables = static_cast<size_t>(parsed);
    } else if (key == "bits") {
      if (parsed < 1 || parsed > 64) {
        return Status::Invalid("approx bits=" + value +
                               " out of range (1..64)");
      }
      spec->approx_bits = static_cast<size_t>(parsed);
    } else {
      return Status::Invalid("unknown option '" + key +
                             "' in engine spec 'approx:" + options +
                             "'; accepted options: tables=N (1..1024), "
                             "bits=M (1..64)");
    }
  }
  return Status::OK();
}

}  // namespace

std::string KnownEngineSpecsHelp() {
  std::string help;
  for (const EngineSpecEntry& entry : kEngineSpecRegistry) {
    if (!help.empty()) help += ", ";
    help += entry.syntax;
  }
  return help;
}

Result<EngineSpec> ParseEngineSpec(const std::string& name) {
  const size_t colon = name.find(':');
  const std::string head = name.substr(0, colon);
  const std::string options =
      colon == std::string::npos ? "" : name.substr(colon + 1);
  for (const EngineSpecEntry& entry : kEngineSpecRegistry) {
    if (head != entry.name) continue;
    EngineSpec spec = entry.make();
    if (colon == std::string::npos) return spec;
    if (!spec.approx) {
      return Status::Invalid("engine '" + head +
                             "' takes no options (got '" + options +
                             "'); registered engines: " +
                             KnownEngineSpecsHelp());
    }
    Status parsed = ParseApproxOptions(options, &spec);
    if (!parsed.ok()) return parsed;
    return spec;
  }
  return Status::Invalid("unknown engine '" + head +
                         "'; registered engines: " + KnownEngineSpecsHelp());
}

Result<std::unique_ptr<Searcher>> BuildEngineFromSpec(const EngineSpec& spec,
                                                      SnapshotHandle snapshot) {
  if (spec.auto_router) {
    return std::unique_ptr<Searcher>(std::make_unique<AutoSearcher>(snapshot));
  }
  if (spec.approx) {
    ApproxOptions options;
    options.tables = spec.approx_tables;
    options.bits = spec.approx_bits;
    return std::unique_ptr<Searcher>(
        std::make_unique<ApproxSearcher>(snapshot, options));
  }
  return MakeSearcher(spec.kind, std::move(snapshot));
}

EngineHost::EngineHost(std::vector<EngineSpec> specs, EngineHostOptions options)
    : specs_(std::move(specs)), options_(options) {}

Status EngineHost::BuildSet(SnapshotHandle snapshot, const SearchContext& ctx,
                            std::shared_ptr<EngineSet>* out) const {
  if (specs_.empty()) {
    return Status::Invalid("EngineHost: no engine specs");
  }
  auto set = std::make_shared<EngineSet>();
  set->snapshot = snapshot;
  set->generation = snapshot->version();
  for (const EngineSpec& spec : specs_) {
    // Constructors are not interruptible, so between-builds is the
    // cancellation granularity: a stop request takes effect before the next
    // engine starts, and nothing half-built is ever published.
    if (ctx.StopRequested()) return ctx.StopStatus();
    SSS_FAILPOINT_STATUS("engine_host:build");
    if (set->by_id[spec.id] != nullptr) {
      return Status::Invalid("EngineHost: duplicate engine id " +
                             std::to_string(spec.id));
    }
    Result<std::unique_ptr<Searcher>> made = BuildEngineFromSpec(spec, snapshot);
    if (!made.ok()) return made.status();
    std::unique_ptr<Searcher> engine = std::move(*made);
    set->by_id[spec.id] = engine.get();
    if (set->default_engine == nullptr) set->default_engine = engine.get();
    set->engines.push_back(std::move(engine));
  }
  *out = std::move(set);
  return Status::OK();
}

Status EngineHost::Load(SnapshotHandle snapshot, const SearchContext& ctx) {
  if (snapshot == nullptr) {
    return Status::Invalid("EngineHost: null snapshot");
  }
  std::unique_lock<std::mutex> lock(reload_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    counters_.reloads_rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("EngineHost: reload already in progress");
  }

  Stopwatch build_timer;
  std::shared_ptr<EngineSet> set;
  Status built = BuildSet(snapshot, ctx, &set);
  const uint64_t build_micros =
      static_cast<uint64_t>(build_timer.ElapsedNanos() / 1000);
  counters_.last_build_micros.store(build_micros, std::memory_order_relaxed);
  if (options_.stats != nullptr) {
    SearchStats delta;
    delta.host_reloads_failed = built.ok() ? 0 : 1;
    delta.host_reload_build_micros = build_micros;
    options_.stats->Record(delta);
  }
  if (!built.ok()) {
    counters_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    return built;
  }

  SSS_RETURN_NOT_OK(Publish(std::move(set)));
  if (!snapshot->source_path().empty()) {
    source_path_ = snapshot->source_path();
  }
  return Status::OK();
}

Status EngineHost::Publish(std::shared_ptr<EngineSet> set) {
  if (set == nullptr) return Status::Invalid("EngineHost: null engine set");
  SSS_FAILPOINT("engine_host:publish");
  // The retired generation leaves the critical section alive and is torn
  // down only after the swap: destruction of a full engine set (tries,
  // indexes, the old collection) takes orders of magnitude longer than the
  // pointer exchange and must block neither Acquire() nor the publish
  // window last_publish_nanos reports.
  EngineSetHandle retired;
  Stopwatch publish_timer;
  {
    std::lock_guard<std::mutex> publish_lock(current_mu_);
    retired = std::move(current_);
    current_ = std::move(set);
  }
  counters_.last_publish_nanos.store(
      static_cast<uint64_t>(publish_timer.ElapsedNanos()),
      std::memory_order_relaxed);
  retired.reset();
  counters_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  if (options_.stats != nullptr) {
    SearchStats delta;
    delta.host_reloads_ok = 1;
    options_.stats->Record(delta);
  }
  return Status::OK();
}

Status EngineHost::LoadFile(const std::string& path, const SearchContext& ctx) {
  // The failpoint evaluates inside the lambda so an injected read fault takes
  // the same accounting path as a real one.
  Result<Dataset> dataset = [&]() -> Result<Dataset> {
    SSS_FAILPOINT_STATUS("engine_host:read");
    return ReadDatasetFile(path, "host_data", options_.alphabet);
  }();
  if (!dataset.ok()) {
    // A failed read never reaches Load, so count it here: the caller sees
    // one failure per attempt either way.
    counters_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    if (options_.stats != nullptr) {
      SearchStats delta;
      delta.host_reloads_failed = 1;
      options_.stats->Record(delta);
    }
    return dataset.status();
  }
  return Load(CollectionSnapshot::Create(std::move(*dataset), path), ctx);
}

Status EngineHost::Reload(const SearchContext& ctx) {
  std::string path;
  {
    std::unique_lock<std::mutex> lock(reload_mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      counters_.reloads_rejected.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("EngineHost: reload already in progress");
    }
    path = source_path_;
  }
  if (path.empty()) {
    return Status::Invalid("EngineHost: no source path to reload from");
  }
  return LoadFile(path, ctx);
}

std::string EngineHost::source_path() const {
  std::lock_guard<std::mutex> lock(reload_mu_);
  return source_path_;
}

}  // namespace sss
