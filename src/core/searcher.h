// The common engine interface: both competitors (sequential scan and
// prefix-trie index) implement Searcher, so benches, tests and examples can
// swap them freely. Mirrors the paper's setup where both solutions answer
// the same query batches and only the result-computation time is compared.
//
// Every entry point takes a SearchContext carrying optional cancellation and
// deadline conditions (see util/cancellation.h). Engines poll the context at
// a bounded candidate interval; a stopped search returns kCancelled with its
// output cleared, so callers never see a silently partial MatchList. The
// context-free overloads are conveniences wiring in an inactive context.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "io/dataset.h"
#include "io/snapshot.h"
#include "util/cancellation.h"
#include "util/result.h"
#include "util/status.h"

namespace sss {

class ShardedExecutor;

/// \brief How a batch of queries is executed (§3.5/§3.6, plus the sharded
/// batch engine that goes beyond the paper).
enum class ExecutionStrategy {
  kSerial,          // no parallelism
  kThreadPerQuery,  // strategy 1: one thread per query
  kFixedPool,       // strategy 2: fixed worker count
  kAdaptive,        // strategy 3: master/slave adaptive management
  kSharded,         // planner-grouped (shard × query-group) execution
};

/// \brief Parallel execution parameters shared by all engines.
struct ExecutionOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kSerial;
  /// Worker count for kFixedPool and kSharded (0 = hardware concurrency);
  /// the max worker bound for kAdaptive.
  size_t num_threads = 0;
  /// kSharded: target dataset strings per shard (0 = auto-sized from the
  /// worker count and group count). Only range-capable engines shard the
  /// collection; others fall back to query-chunk tasks.
  size_t shard_size = 0;
  /// kSharded: queries whose text lengths land in the same bucket of this
  /// width (and share a threshold) are planned as one group.
  size_t length_bucket_width = 8;
  /// kSharded: run on this caller-owned persistent pool instead of a
  /// throwaway one (borrowed, never owned). The batch widens the pool to the
  /// resolved worker count if needed and resets its scratch before
  /// returning, so one executor can serve an arbitrary stream of batches —
  /// but only one at a time (ShardedExecutor::Run is single-caller). Lets a
  /// serving worker amortize thread spawns across pipelined windows. Ignored
  /// by every other strategy.
  ShardedExecutor* executor = nullptr;
};

/// \brief The outcome of a cancellable batch: graceful degradation instead
/// of all-or-nothing. Queries the batch finished carry their full answers
/// and an OK status; queries cut off by the deadline/token have kCancelled
/// statuses and empty match lists (partial per-query results are discarded —
/// a present answer is always a complete answer).
struct BatchResult {
  /// Positionally parallel to the input queries.
  SearchResults matches;
  /// Per-query outcome; statuses[i].ok() iff matches[i] is trustworthy.
  std::vector<Status> statuses;
  /// Number of queries with OK status.
  size_t completed = 0;
  /// True iff any query was cut off (completed < queries.size()).
  bool truncated = false;
};

/// \brief A built engine answering string similarity queries over one
/// dataset.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// \brief Appends all dataset ids within query.max_distance of query.text
  /// to `out`, ascending. Returns kCancelled (with `out` cleared) if `ctx`
  /// stopped the search before it finished; `out` holds the complete answer
  /// otherwise. `out` must be empty on entry.
  virtual Status Search(const Query& query, const SearchContext& ctx,
                        MatchList* out) const = 0;

  /// \brief Convenience: Search with no stop conditions (cannot fail).
  MatchList Search(const Query& query) const;

  /// \brief Answers a whole batch, parallelized per `exec`, honoring `ctx`
  /// across queries and executors: when the deadline passes (or the token
  /// cancels), in-flight queries stop cooperatively, queued work is skipped,
  /// and the completed subset comes back tagged per query.
  virtual BatchResult SearchBatch(const QuerySet& queries,
                                  const ExecutionOptions& exec,
                                  const SearchContext& ctx) const;

  /// \brief Convenience: batch with no stop conditions; every query
  /// completes, so only the match lists are interesting.
  SearchResults SearchBatch(const QuerySet& queries,
                            const ExecutionOptions& exec) const;

  /// \brief Engine name for reports ("sequential_scan", "trie_index", ...).
  virtual std::string name() const = 0;

  /// \brief Bytes of auxiliary memory the engine built (index structures,
  /// filter tables; excludes the dataset itself).
  virtual size_t memory_bytes() const { return 0; }

  /// \brief The snapshot this engine was built over. Engines return (a copy
  /// of) the handle they hold, so the caller pins the collection — and its
  /// version id — for as long as the returned handle lives; decorators
  /// forward to the inner engine. nullptr (the default) means "no backing
  /// collection": plan-time skipping and dataset sharding are disabled but
  /// grouped execution stays correct.
  virtual SnapshotHandle SearchedSnapshot() const { return nullptr; }

  /// \brief Convenience over SearchedSnapshot() for callers that only need
  /// the collection (the kSharded planner's group-level length filter and
  /// shard geometry). The pointer is valid for the engine's lifetime (the
  /// engine's own handle keeps the snapshot alive); callers that must
  /// outlive the engine hold the SearchedSnapshot() handle instead.
  const Dataset* SearchedDataset() const {
    const SnapshotHandle snapshot = SearchedSnapshot();
    return snapshot == nullptr ? nullptr : &snapshot->dataset();
  }

  /// \brief True iff SearchRange answers a query restricted to an id range
  /// at proportional cost — the scans, whose data layout *is* the id order.
  /// The sharded driver only splits the collection for such engines; index
  /// engines keep the default and get query-chunk parallelism instead.
  virtual bool SupportsRangeSearch() const { return false; }

  /// \brief Appends every match with begin <= id < end to `out`, ascending.
  /// Stop semantics match Search. Base implementation: full Search()
  /// filtered to the range — correct for any engine but pays the whole
  /// search per call, so the sharded driver never uses it for engines that
  /// do not claim SupportsRangeSearch().
  virtual Status SearchRange(const Query& query, uint32_t begin, uint32_t end,
                             const SearchContext& ctx, MatchList* out) const;

 protected:
  /// \brief Shared batch driver: runs Search(queries[i]) under the chosen
  /// strategy. Engines whose Search is thread-safe get parallelism for free.
  BatchResult RunBatch(const QuerySet& queries, const ExecutionOptions& exec,
                       const SearchContext& ctx) const;

 private:
  /// \brief The kSharded driver: plan (BatchPlanner) → (shard × group)
  /// tasks (ShardedExecutor) → in-order merge. Byte-identical to kSerial.
  BatchResult RunShardedBatch(const QuerySet& queries,
                              const ExecutionOptions& exec,
                              const SearchContext& ctx) const;
};

/// \brief Which engine to construct. The value is the engine's wire id (the
/// protocol's engine byte), so values are explicit and never reused: 3, 5
/// and 6 named retired engines and now resolve to no engine.
enum class EngineKind {
  kSequentialScan = 0,       // the paper's contribution (§3)
  kTrieIndex = 1,            // the paper's index (§4.1)
  kCompressedTrieIndex = 2,  // §4.2
  kPartitionIndex = 4,       // related-work baseline: pigeonhole partitioning
};

/// \brief Human-readable engine name.
std::string ToString(EngineKind kind);

/// \brief Strategy name for reports ("serial", "thread_per_query", ...).
std::string ToString(ExecutionStrategy strategy);

/// \brief Builds an engine of `kind` over `snapshot` with default engine
/// options. The searcher keeps a handle, so the snapshot (and its dataset)
/// live at least as long as the engine.
Result<std::unique_ptr<Searcher>> MakeSearcher(EngineKind kind,
                                               SnapshotHandle snapshot);

/// \brief Legacy convenience: wraps `dataset` in a borrowed (non-owning)
/// snapshot. The dataset must outlive the returned searcher — prefer the
/// SnapshotHandle overload anywhere the collection can be replaced at
/// runtime.
Result<std::unique_ptr<Searcher>> MakeSearcher(EngineKind kind,
                                               const Dataset& dataset);

}  // namespace sss
