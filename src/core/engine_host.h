// EngineHost — snapshot-owned engine lifecycle. The host turns the static
// "build engines in main(), borrow them forever" wiring into a replaceable
// generation: every Load builds a complete engine set against one immutable
// CollectionSnapshot and publishes it with a single pointer swap under a
// lock held only for the swap itself.
// Readers pin a generation with Acquire() and keep searching it for as long
// as they hold the handle — a concurrent reload never invalidates an
// in-flight query, it only makes the *next* Acquire() return the new set.
//
// Ownership diagram (see DESIGN.md §9):
//
//   CollectionSnapshot (refcounted, immutable, versioned)
//        ▲  one handle per engine + one in the set
//   EngineSet {snapshot, engines[], by_id[256], default}  (immutable)
//        ▲  pointer swap on publish (lock held for the swap only)
//   EngineHost ──Acquire()──▶ request handlers (one pin per request)
//
// Reload semantics:
//   * serialized — a second Load/Reload while one is running returns
//     kUnavailable instead of queueing (the caller retries; the admission
//     philosophy of the server applies to control operations too);
//   * cancellable — the SearchContext's token/deadline is polled between
//     per-engine builds (constructors are not interruptible, so that is the
//     granularity); a cancelled build publishes nothing;
//   * fail-safe — any build error leaves the previous generation serving.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "io/dataset.h"
#include "io/snapshot.h"
#include "util/cancellation.h"
#include "util/result.h"
#include "util/search_stats.h"
#include "util/status.h"

namespace sss {

/// \brief Wire id under which the auto-routing engine (AutoSearcher) is
/// served. EngineKind values occupy the low ids; this sits far above them.
inline constexpr uint8_t kAutoEngineId = 0xF0;

/// \brief Wire id of the approximate tier (ApproxSearcher).
inline constexpr uint8_t kApproxEngineId = 0xF1;

// EngineSpec::For serves each engine under uint8_t(EngineKind); clients of
// older builds address engines by these ids, so they must never move.
static_assert(static_cast<uint8_t>(EngineKind::kSequentialScan) == 0);
static_assert(static_cast<uint8_t>(EngineKind::kTrieIndex) == 1);
static_assert(static_cast<uint8_t>(EngineKind::kCompressedTrieIndex) == 2);
static_assert(static_cast<uint8_t>(EngineKind::kPartitionIndex) == 4);

/// \brief One engine to build per generation: a wire id plus what to build.
struct EngineSpec {
  /// Id the engine is served under — conventionally uint8_t(EngineKind),
  /// kAutoEngineId / kApproxEngineId for the special engines.
  uint8_t id = 0;
  /// What MakeSearcher builds; ignored when auto_router or approx is set.
  EngineKind kind = EngineKind::kSequentialScan;
  /// Build AutoSearcher (dataset-profiled scan/trie routing) instead.
  bool auto_router = false;
  /// Build ApproxSearcher (CGK+LSH candidates, exact verification) instead.
  bool approx = false;
  /// LSH layout for approx engines (see ApproxOptions).
  size_t approx_tables = 8;
  size_t approx_bits = 16;

  static EngineSpec For(EngineKind kind) {
    return EngineSpec{static_cast<uint8_t>(kind), kind, false};
  }
  static EngineSpec Auto() {
    return EngineSpec{kAutoEngineId, EngineKind::kSequentialScan, true};
  }
  static EngineSpec Approx(size_t tables = 8, size_t bits = 16) {
    EngineSpec spec;
    spec.id = kApproxEngineId;
    spec.approx = true;
    spec.approx_tables = tables;
    spec.approx_bits = bits;
    return spec;
  }
};

/// \brief Parses an engine spec as used by the tools (--engine): a
/// registered name (scan, trie, ctrie, partition, auto, approx),
/// optionally followed by ':' and comma-separated key=value options for
/// specs that take them (today: approx:tables=N,bits=M).
/// Unknown names and malformed options fail with a message enumerating
/// every registered spec, so --engine typos are self-explaining.
Result<EngineSpec> ParseEngineSpec(const std::string& name);

/// \brief One line per registered engine spec ("name — description"),
/// embedded in ParseEngineSpec errors and the tools' --engine help text.
std::string KnownEngineSpecsHelp();

/// \brief Builds the engine `spec` describes over `snapshot` — the one
/// construction path shared by EngineHost::BuildSet and the one-shot tools,
/// so every spec the parser accepts is buildable everywhere.
Result<std::unique_ptr<Searcher>> BuildEngineFromSpec(const EngineSpec& spec,
                                                      SnapshotHandle snapshot);

/// \brief One published generation: a snapshot and every engine built over
/// it. Immutable after construction; destroyed when the last pin drops.
struct EngineSet {
  SnapshotHandle snapshot;
  /// == snapshot->version(); echoed in server responses.
  uint64_t generation = 0;
  /// Owners, in spec order. Engines hold their own snapshot handles, so the
  /// set keeps exactly one collection alive.
  std::vector<std::unique_ptr<Searcher>> engines;
  /// Wire id → engine (nullptr where nothing is registered).
  std::array<const Searcher*, 256> by_id = {};
  /// Answers requests that do not pin an engine (first spec).
  const Searcher* default_engine = nullptr;

  const Searcher* Find(uint8_t id) const noexcept { return by_id[id]; }
};

using EngineSetHandle = std::shared_ptr<const EngineSet>;

struct EngineHostOptions {
  /// Alphabet LoadFile/Reload parse dataset files with.
  AlphabetKind alphabet = AlphabetKind::kGeneric;
  /// Optional sink for host_reloads_ok / host_reloads_failed /
  /// host_reload_build_micros. Borrowed; must outlive the host.
  StatsSink* stats = nullptr;
};

/// \brief Reload/publish observability, readable while the host runs.
/// Relaxed atomics: these count, they do not synchronize.
struct EngineHostCounters {
  std::atomic<uint64_t> reloads_ok{0};
  std::atomic<uint64_t> reloads_failed{0};     // build errors + cancellations
  std::atomic<uint64_t> reloads_rejected{0};   // concurrent-reload kUnavailable
  /// Wall time building the last attempted engine set (µs).
  std::atomic<uint64_t> last_build_micros{0};
  /// Wall time of the last publish swap itself (ns) — the window competing
  /// Acquire() calls can even observe. The reload acceptance bar requires
  /// this < 1 ms (engine_host_test asserts it on the median publish).
  std::atomic<uint64_t> last_publish_nanos{0};
};

/// \brief Builds and atomically publishes engine generations. Thread-safe:
/// Acquire()/generation() from any thread, Load/LoadFile/Reload serialized
/// by rejection (not queueing). The host is the serving layer's only source
/// of engines.
class EngineHost {
 public:
  /// `specs` lists the engines every generation builds; the first is the
  /// default. Invalid specs (empty list, duplicate ids) surface on Load.
  explicit EngineHost(std::vector<EngineSpec> specs,
                      EngineHostOptions options = {});
  SSS_DISALLOW_COPY_AND_ASSIGN(EngineHost);

  /// \brief Builds every spec'd engine over `snapshot` and publishes the set
  /// (BuildSet, then Publish). `ctx` is polled between engine builds: a
  /// cancelled/over-deadline build returns kCancelled and publishes nothing.
  /// On any failure the previous generation (if one exists) keeps serving.
  Status Load(SnapshotHandle snapshot, const SearchContext& ctx = {});

  /// \brief Makes `set` the current generation with one pointer swap and
  /// counts it in reloads_ok / last_publish_nanos / host_reloads_ok — the
  /// only way a generation goes live. Load calls it under its reload lock;
  /// a caller holding a ready-made set (a test serving wrapper engines it
  /// borrows through `by_id`) takes the same path but orders its own
  /// publishes against concurrent loads. kInvalid on a null set.
  Status Publish(std::shared_ptr<EngineSet> set);

  /// \brief Reads `path` (options.alphabet), wraps it in a new owned
  /// snapshot, and Load()s it. The path is remembered for Reload().
  Status LoadFile(const std::string& path, const SearchContext& ctx = {});

  /// \brief Re-reads the last LoadFile path (kInvalid if there is none) and
  /// publishes a fresh generation — the SIGHUP / admin-frame entry point.
  Status Reload(const SearchContext& ctx = {});

  /// \brief Pins the current generation: the returned set (snapshot, version
  /// id, engines) stays valid for as long as the handle lives, regardless of
  /// concurrent reloads. nullptr before the first successful Load.
  EngineSetHandle Acquire() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// \brief The published generation id (0 = nothing published yet).
  uint64_t generation() const noexcept {
    const EngineSetHandle set = Acquire();
    return set == nullptr ? 0 : set->generation;
  }

  const EngineHostCounters& counters() const noexcept { return counters_; }

  /// \brief The path Reload() would re-read ("" = none). Racy snapshot.
  std::string source_path() const;

 private:
  Status BuildSet(SnapshotHandle snapshot, const SearchContext& ctx,
                  std::shared_ptr<EngineSet>* out) const;

  std::vector<EngineSpec> specs_;
  EngineHostOptions options_;

  /// Serializes reloads; try-locked so a competing reload is rejected, never
  /// queued behind a slow build.
  mutable std::mutex reload_mu_;
  std::string source_path_;  // guarded by reload_mu_

  /// Guards only the handle itself — the critical section is a shared_ptr
  /// copy (one refcount bump), never a build or a search, so readers contend
  /// for nanoseconds. libstdc++ 12's lock-free atomic<shared_ptr> would do
  /// the same job but its internal lock-bit protocol is invisible to TSan;
  /// a real mutex keeps the sanitized CI suites clean.
  mutable std::mutex current_mu_;
  EngineSetHandle current_;  // guarded by current_mu_
  EngineHostCounters counters_;
};

}  // namespace sss
