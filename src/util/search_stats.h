// Search observability: per-operation counters for everything the paper's
// argument is built on — how many candidates the filters discard, how often
// the DP kernels abort early, how much of a trie a query actually touches.
// The paper justifies every optimization step (§3–§5) with exactly these
// numbers; SearchStats makes the reproduction's engines report them.
//
// Collection is strictly opt-in and near-zero-cost when disabled:
//   * Engines accumulate into a stack-local SearchStats via StatsScope —
//     plain register/stack increments, no atomics, no locks — and flush the
//     local once per Search/SearchRange call.
//   * The flush target is a StatsSink (attached through
//     SearchContext::stats; nullptr = disabled, the default). The sink is
//     thread-safe: deltas land in one of a few cache-line-padded shards
//     picked by thread id, so concurrent workers almost never contend, and
//     Collected() merges the shards after the executor barrier.
//
// This lives in util (not core) so the executors in src/parallel can report
// their own counters (pool opens/closes, task claims/steals) into the same
// sink without depending on the engine layer.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "util/macros.h"

namespace sss {

// Every counter, named once. X-macro so Add/ToJson/ToString/operator== can
// never drift from the field list.
#define SSS_FOR_EACH_SEARCH_STAT(X) \
  X(candidates_considered)          \
  X(length_filter_rejects)          \
  X(frequency_filter_rejects)       \
  X(qgram_filter_rejects)           \
  X(verify_calls)                   \
  X(kernel_banded_calls)            \
  X(kernel_myers_calls)             \
  X(dp_early_aborts)                \
  X(simd_lanes_verified)            \
  X(simd_fallback_pairs)            \
  X(simd_lane_columns)              \
  X(dispatch_tier)                  \
  X(trie_nodes_visited)             \
  X(trie_nodes_pruned)              \
  X(partition_probes)               \
  X(approx_embeddings_built)        \
  X(approx_buckets_probed)          \
  X(approx_candidates_generated)    \
  X(approx_candidates_filtered)     \
  X(approx_candidates_verified)     \
  X(degraded_probes)                \
  X(degraded_to_scan)               \
  X(degraded_to_approx)             \
  X(matches_found)                  \
  X(planner_skipped_queries)        \
  X(pool_opens)                     \
  X(pool_closes)                    \
  X(tasks_executed)                 \
  X(tasks_stolen)                   \
  X(server_requests_accepted)       \
  X(server_requests_shed)           \
  X(server_requests_cancelled)      \
  X(server_bytes_in)                \
  X(server_bytes_out)               \
  X(server_windows_batched)         \
  X(server_window_depth_sum)        \
  X(host_reloads_ok)                \
  X(host_reloads_failed)            \
  X(host_reload_build_micros)       \
  X(router_requests)                \
  X(router_degraded_responses)      \
  X(router_retries)                 \
  X(router_hedges_fired)            \
  X(router_hedges_won)              \
  X(router_breaker_opens)           \
  X(router_breaker_short_circuits)  \
  X(router_shard_errors)            \
  X(router_channel_multiplexed)

/// \brief Per-call counters the edit-distance kernels maintain inside the
/// EditDistanceWorkspace they already receive. Engines snapshot the
/// workspace counters around their verify loop and fold the delta into
/// their SearchStats, so kernel-level counts need no extra plumbing.
struct KernelCounters {
  uint64_t banded_calls = 0;  // BoundedEditDistance invocations
  uint64_t myers_calls = 0;   // BoundedMyers invocations
  uint64_t early_aborts = 0;  // band/score aborts before the last row
};

/// \brief One batch's (or one call's) worth of search effectiveness
/// counters. Plain data; Add() merges, fields sum independently.
///
/// Counter taxonomy:
///   * candidate funnel — candidates_considered, *_rejects, verify_calls:
///     the scan-shaped engines' per-id pipeline (also the index engines'
///     post-candidate verify loops);
///   * kernels — kernel_*_calls, dp_early_aborts: which DP kernel verified
///     and how often the paper's abort conditions fired;
///   * lane kernels — simd_lanes_verified (candidates verified by a
///     many-vs-many lane kernel), simd_fallback_pairs (candidates a
///     non-scalar tier had to verify per-pair: empty queries, filters on,
///     or a non-default verify kernel); their sum equals verify_calls on
///     the lane-capable engines. simd_lane_columns adds, per lane-verified
///     candidate, the text columns its group advanced before retiring,
///     and a lane-verified candidate whose group retired before its last
///     column counts once in dp_early_aborts. dispatch_tier is a label,
///     not a count: the resolved KernelTier (0=scalar 1=swar 2=avx2) the
///     batch drivers record once per batch — comparable across
///     strategies, meaningless to sum across batches run under different
///     tiers;
///   * index traversal — trie_nodes_*, partition_probes: work the index
///     structures did;
///   * approx tier — approx_embeddings_built (CGK embeddings computed for
///     query strings), approx_buckets_probed (LSH bucket lookups: tables per
///     query), approx_candidates_generated (ids surfaced by bucket probes,
///     counting a string once per table it collided in),
///     approx_candidates_verified (unique candidates handed to the exact
///     verify kernel; equals the engine's verify_calls contribution) and
///     approx_candidates_filtered (generated − verified: cross-table
///     duplicates plus length-filter rejects). generated == filtered +
///     verified always holds;
///   * decorators — degraded_probes (AutoSearcher's trie probe falling
///     back under deadline pressure), split by where the degraded query
///     actually went: degraded_to_scan
///     (exact sequential scan) vs degraded_to_approx (LSH tier when the
///     remaining budget cannot afford the scan). degraded_probes ==
///     degraded_to_scan + degraded_to_approx on the probe path;
///     degraded_to_approx additionally counts direct-route queries whose
///     deadline cannot afford their exact route;
///   * execution layer — planner_skipped_queries plus pool/task counters
///     the executors report once per batch at the merge barrier;
///   * serving layer — server_requests_* and server_bytes_* reported per
///     request by sss::server::Server (and mirrored client-side by
///     sss_loadgen, which observes the same events from the other end of
///     the connection); every admitted request runs in a window through
///     one SearchBatch, and server_windows_batched counts the windows of
///     two or more requests while server_window_depth_sum sums their
///     depths, so depth_sum / windows_batched is the mean pipelined batch
///     the engine actually saw (depth_sum ≥ 2 × windows_batched always:
///     a lone request runs the same batch path but counts in neither);
///   * lifecycle — host_reloads_* and host_reload_build_micros reported by
///     EngineHost once per Load/Reload attempt (build_micros is the wall
///     time spent constructing the engine set that was, or failed to be,
///     published);
///   * routing — router_* reported by sss::server::Router once per
///     fanned-out request: retries (re-dials after a transport failure),
///     hedges fired/won (speculative duplicate attempts and how often the
///     hedge beat the original), breaker opens and short-circuits (shards
///     skipped while their circuit is open), shard_errors (attempts that
///     ended in a transport failure), degraded_responses (answers returned
///     with the partial-result flag); router_channel_multiplexed counts
///     shard calls that shared the persistent per-shard channel with at
///     least one other in-flight call (channel_multiplexed ≤ requests ×
///     shards — it can only exceed zero under concurrent fan-outs).
struct SearchStats {
#define SSS_DECLARE_STAT(name) uint64_t name = 0;
  SSS_FOR_EACH_SEARCH_STAT(SSS_DECLARE_STAT)
#undef SSS_DECLARE_STAT

  /// \brief Field-wise sum.
  void Add(const SearchStats& other) noexcept;

  /// \brief Folds a kernel-counter delta (after − before) into the kernel
  /// fields. `after` must be ≥ `before` field-wise (same workspace, later).
  void AddKernelDelta(const KernelCounters& after,
                      const KernelCounters& before) noexcept;

  /// \brief Appends a flat JSON object ({"candidates_considered":N,...})
  /// containing every counter, in declaration order.
  void AppendJson(std::string* out) const;
  std::string ToJson() const;

  /// \brief One "name=value" line per counter (human-readable --stats).
  std::string ToString() const;

  bool operator==(const SearchStats&) const = default;
};

/// \brief Thread-safe accumulator the engines and executors flush into.
/// Deltas are merged under per-shard mutexes (shard picked by thread id),
/// so workers contend only on hash collisions; Collected() merges all
/// shards — call it after the batch barrier for a consistent total.
class StatsSink {
 public:
  StatsSink();
  SSS_DISALLOW_COPY_AND_ASSIGN(StatsSink);

  /// \brief Adds `delta` to this thread's shard. Safe from any thread.
  void Record(const SearchStats& delta) noexcept;

  /// \brief Sum over all shards. Consistent once no Record() is in flight
  /// (i.e. after the executors' join barrier).
  SearchStats Collected() const;

  /// \brief Zeroes every shard (reuse across batches).
  void Reset();

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    SearchStats stats;
  };
  size_t ShardIndex() const noexcept;
  Shard shards_[kShards];
};

/// \brief RAII accumulator for one engine call: counters increment on the
/// stack (free when disabled — the sink pointer is never touched in the hot
/// loop) and flush to the sink, if any, at scope exit.
class StatsScope {
 public:
  explicit StatsScope(StatsSink* sink) noexcept : sink_(sink) {}
  SSS_DISALLOW_COPY_AND_ASSIGN(StatsScope);
  ~StatsScope() {
    if (sink_ != nullptr) sink_->Record(local_);
  }

  /// \brief True iff a sink is attached. Lets call sites skip work that
  /// only exists to be counted (none of the hot loops need this).
  bool enabled() const noexcept { return sink_ != nullptr; }

  /// \brief Convenience forward to the local stats' AddKernelDelta.
  void AddKernelDelta(const KernelCounters& after,
                      const KernelCounters& before) noexcept {
    local_.AddKernelDelta(after, before);
  }

  SearchStats* operator->() noexcept { return &local_; }
  SearchStats& operator*() noexcept { return local_; }

 private:
  StatsSink* sink_;
  SearchStats local_;
};

}  // namespace sss
