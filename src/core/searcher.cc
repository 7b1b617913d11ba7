#include "core/searcher.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "core/batch_planner.h"
#include "core/compressed_trie.h"
#include "core/partition_index.h"
#include "core/scan.h"
#include "core/trie.h"
#include "parallel/adaptive_pool.h"
#include "parallel/partitioner.h"
#include "parallel/sharded_executor.h"
#include "parallel/thread_per_query.h"
#include "parallel/thread_pool.h"
#include "util/failpoint.h"
#include "util/kernel_dispatch.h"
#include "util/search_stats.h"

namespace sss {

MatchList Searcher::Search(const Query& query) const {
  MatchList out;
  const Status st = Search(query, SearchContext{}, &out);
  // An inactive context can never stop a search.
  SSS_DCHECK(st.ok());
  (void)st;
  return out;
}

BatchResult Searcher::SearchBatch(const QuerySet& queries,
                                  const ExecutionOptions& exec,
                                  const SearchContext& ctx) const {
  return RunBatch(queries, exec, ctx);
}

SearchResults Searcher::SearchBatch(const QuerySet& queries,
                                    const ExecutionOptions& exec) const {
  return SearchBatch(queries, exec, SearchContext{}).matches;
}

BatchResult Searcher::RunBatch(const QuerySet& queries,
                               const ExecutionOptions& exec,
                               const SearchContext& ctx) const {
  if (exec.strategy == ExecutionStrategy::kSharded) {
    return RunShardedBatch(queries, exec, ctx);
  }

  BatchResult result;
  result.matches.resize(queries.size());
  // Pre-mark every query as "never ran"; run_one overwrites with the real
  // outcome. Work an executor skips after a stop is thereby already tagged.
  result.statuses.assign(queries.size(), ctx.StopStatus());

  const bool active = ctx.CanStop();
  const SearchContext* stop = active ? &ctx : nullptr;
  const auto run_one = [&](size_t i) {
    SSS_FAILPOINT("searcher:run_query");
    Status st = Search(queries[i], ctx, &result.matches[i]);
    if (!st.ok()) result.matches[i].clear();
    result.statuses[i] = std::move(st);
  };

  // Executor-level counters: thread open/close and task-scheduling totals
  // land in the sink once per batch, next to whatever the engines recorded.
  // dispatch_tier is a once-per-batch label (0=scalar 1=swar 2=avx2), not a
  // count: recording it here, not per engine call, keeps it identical
  // across execution strategies.
  SearchStats exec_stats;
  exec_stats.dispatch_tier =
      static_cast<uint64_t>(ResolveKernelTier(ctx.kernel_tier));

  switch (exec.strategy) {
    case ExecutionStrategy::kSerial: {
      size_t ran = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        if (active && ctx.StopRequested()) break;
        run_one(i);
        ++ran;
      }
      exec_stats.tasks_executed = ran;
      break;
    }
    case ExecutionStrategy::kThreadPerQuery: {
      const size_t spawned =
          RunThreadPerItem(queries.size(), run_one, /*max_live=*/0, stop);
      // Strategy 1 opens and closes one thread per query by design.
      exec_stats.pool_opens = spawned;
      exec_stats.pool_closes = spawned;
      exec_stats.tasks_executed = spawned;
      break;
    }
    case ExecutionStrategy::kFixedPool: {
      ThreadPool pool(exec.num_threads);
      // Dynamic scheduling: query costs are highly skewed (they depend on k
      // and result size), so static partitioning would leave cores idle.
      PoolRunStats run_stats;
      pool.DynamicParallelFor(queries.size(), run_one, /*chunk=*/1, stop,
                              &run_stats);
      exec_stats.pool_opens = pool.num_threads();
      exec_stats.pool_closes = pool.num_threads();
      exec_stats.tasks_executed = run_stats.chunks_executed;
      exec_stats.tasks_stolen = run_stats.chunks_stolen;
      break;
    }
    case ExecutionStrategy::kAdaptive: {
      AdaptivePoolOptions options;
      options.max_threads = exec.num_threads;
      AdaptivePool pool(options);
      pool.ParallelFor(queries.size(), run_one, /*chunk=*/1, stop);
      exec_stats.pool_opens = pool.total_opens();
      exec_stats.pool_closes = pool.total_closes();
      break;
    }
    case ExecutionStrategy::kSharded:
      break;  // handled above
  }

  for (const Status& st : result.statuses) result.completed += st.ok();
  result.truncated = result.completed < queries.size();
  if (exec.strategy == ExecutionStrategy::kAdaptive) {
    // The adaptive master closes workers after ParallelFor returns; by the
    // time the pool is destroyed, every open has a matching close.
    exec_stats.pool_closes = exec_stats.pool_opens;
    exec_stats.tasks_executed = result.completed;
  }
  if (ctx.stats != nullptr) ctx.stats->Record(exec_stats);
  return result;
}

Status Searcher::SearchRange(const Query& query, uint32_t begin, uint32_t end,
                             const SearchContext& ctx, MatchList* out) const {
  MatchList all;
  const Status st = Search(query, ctx, &all);
  if (!st.ok()) {
    out->clear();
    return st;
  }
  for (uint32_t id : all) {
    if (id >= begin && id < end) out->push_back(id);
  }
  return Status::OK();
}

namespace {

// One task of the sharded driver: a query sub-range of one plan group,
// scanned over one contiguous id shard of the collection.
struct ShardTask {
  uint32_t group = 0;
  Range ids;      // dataset shard (whole collection for non-range engines)
  Range queries;  // sub-range of the group's query-index array
};

// Matches one task produced for one query: a span into a worker arena.
struct MatchSpan {
  uint32_t query = 0;  // index into the original QuerySet
  uint32_t count = 0;
  const uint32_t* data = nullptr;
};

}  // namespace

BatchResult Searcher::RunShardedBatch(const QuerySet& queries,
                                      const ExecutionOptions& exec,
                                      const SearchContext& ctx) const {
  BatchResult result;
  result.matches.resize(queries.size());
  result.statuses.assign(queries.size(), Status::OK());
  result.completed = queries.size();
  if (queries.empty()) return result;

  const bool active = ctx.CanStop();
  const auto mark_all_cancelled = [&] {
    const Status st = ctx.StopStatus();
    for (Status& s : result.statuses) s = st;
    result.completed = 0;
    result.truncated = true;
  };
  if (active && ctx.StopRequested()) {
    mark_all_cancelled();
    return result;
  }

  // Pin the snapshot for the whole batch: the planner's length bounds and
  // the shard geometry below must describe the same collection every task
  // searches, even if the engine's owner republishes mid-batch.
  const SnapshotHandle snapshot = SearchedSnapshot();
  const Dataset* dataset =
      snapshot == nullptr ? nullptr : &snapshot->dataset();
  if (dataset != nullptr && dataset->empty()) return result;

  // Plan: group by (threshold, length bucket), length-filter once per group.
  // Without a dataset the bounds are unbounded — nothing skips, everything
  // else still holds.
  BatchPlannerOptions planner_options;
  planner_options.length_bucket_width = exec.length_bucket_width;
  BatchPlanner planner(planner_options);
  const size_t ds_min = dataset ? dataset->pool().min_length() : 0;
  const size_t ds_max = dataset ? dataset->pool().max_length() : SIZE_MAX;
  const BatchPlan& plan = planner.Plan(queries, ds_min, ds_max);

  // Queries the planner answered without running any engine code (their
  // group's length bucket cannot intersect the dataset's length range).
  SearchStats exec_stats;
  exec_stats.dispatch_tier =
      static_cast<uint64_t>(ResolveKernelTier(ctx.kernel_tier));
  for (const QueryGroup& g : plan.groups) {
    if (g.skip) exec_stats.planner_skipped_queries += g.num_queries;
  }

  size_t active_groups = 0;
  for (const QueryGroup& g : plan.groups) active_groups += g.skip ? 0 : 1;
  if (active_groups == 0) {
    if (ctx.stats != nullptr) ctx.stats->Record(exec_stats);
    return result;
  }

  // The executor: a caller-injected persistent pool when provided (the
  // serving path reuses one parked pool per worker across windows, paying
  // thread spawns once instead of per batch), a local throwaway otherwise.
  std::unique_ptr<ShardedExecutor> local_executor;
  ShardedExecutor* executor = exec.executor;
  if (executor != nullptr) {
    size_t desired = exec.num_threads;
    if (desired == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      desired = hw == 0 ? 4 : hw;
    }
    executor->Grow(desired);
  } else {
    ShardedExecutorOptions executor_options;
    executor_options.num_threads = exec.num_threads;
    local_executor = std::make_unique<ShardedExecutor>(executor_options);
    executor = local_executor.get();
  }
  const size_t workers = executor->num_threads();

  // Task geometry. Range-capable engines split the collection into
  // contiguous id shards; the rest split each group's query list. Either
  // way we aim for enough tasks that the dynamic scheduler can rebalance
  // skewed cells (~4 per worker), but no finer.
  const bool shard_dataset = SupportsRangeSearch() && dataset != nullptr;
  const size_t target_tasks = std::max(workers * 4, active_groups);
  std::vector<ShardTask> tasks;
  if (shard_dataset) {
    size_t num_shards;
    if (exec.shard_size > 0) {
      num_shards = (dataset->size() + exec.shard_size - 1) / exec.shard_size;
    } else {
      num_shards = (target_tasks + active_groups - 1) / active_groups;
      // Shards below ~1k strings pay more in bookkeeping than they win in
      // balance.
      const size_t max_shards =
          std::max<size_t>(1, dataset->size() / 1024);
      num_shards = std::min(num_shards, max_shards);
    }
    num_shards = std::max<size_t>(1, std::min(num_shards, dataset->size()));
    const std::vector<Range> shards =
        PartitionEvenly(dataset->size(), num_shards);
    tasks.reserve(active_groups * num_shards);
    for (uint32_t g = 0; g < plan.groups.size(); ++g) {
      if (plan.groups[g].skip) continue;
      for (const Range& shard : shards) {
        if (shard.empty()) continue;
        tasks.push_back(
            {g, shard, Range{0, plan.groups[g].num_queries}});
      }
    }
  } else {
    const size_t full = dataset ? dataset->size() : 0;
    for (uint32_t g = 0; g < plan.groups.size(); ++g) {
      const QueryGroup& group = plan.groups[g];
      if (group.skip) continue;
      const size_t chunks = std::min<size_t>(
          group.num_queries,
          std::max<size_t>(1, target_tasks / active_groups));
      for (const Range& r : PartitionEvenly(group.num_queries, chunks)) {
        if (r.empty()) continue;
        tasks.push_back({g, Range{0, full}, r});
      }
    }
  }

  // Execute. Each task appends its per-query match spans (arena-backed) to
  // its own slot, so tasks never synchronize with each other. Per-task
  // completion marks the prefix of its query sub-range it fully answered;
  // a stop leaves the suffix (and every unclaimed task's whole range)
  // unanswered, which the merge below turns into per-query kCancelled.
  std::vector<std::vector<MatchSpan>> task_spans(tasks.size());
  std::vector<size_t> task_done(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) task_done[t] = tasks[t].queries.begin;
  const size_t helpers_spawned = executor->Run(
      tasks.size(),
      [&](size_t t, ShardScratch* scratch) {
        const ShardTask& task = tasks[t];
        const QueryGroup& group = plan.groups[task.group];
        std::vector<MatchSpan>& spans = task_spans[t];
        spans.reserve(task.queries.size());
        for (size_t qi = task.queries.begin; qi < task.queries.end; ++qi) {
          if (active && ctx.StopRequested()) break;
          SSS_FAILPOINT("searcher:run_query");
          const uint32_t query_index = group.queries[qi];
          const Query& query = queries[query_index];
          MatchList& buffer = scratch->match_buffer;
          buffer.clear();
          Status st;
          if (shard_dataset) {
            st = SearchRange(query, static_cast<uint32_t>(task.ids.begin),
                             static_cast<uint32_t>(task.ids.end), ctx,
                             &buffer);
          } else {
            // Whole-collection task: one task owns this query outright.
            st = Search(query, ctx, &buffer);
          }
          if (!st.ok()) break;
          task_done[t] = qi + 1;
          if (buffer.empty()) continue;
          auto* copy = scratch->arena.NewArray<uint32_t>(buffer.size());
          std::memcpy(copy, buffer.data(), buffer.size() * sizeof(uint32_t));
          spans.push_back({query_index, static_cast<uint32_t>(buffer.size()),
                           copy});
        }
      },
      active ? &ctx : nullptr);

  // A query's answer is complete iff every task covering it got through it.
  // Queries in skipped groups are covered by no task and stay complete
  // (their correct answer is empty).
  std::vector<char> query_ok(queries.size(), 1);
  for (size_t t = 0; t < tasks.size(); ++t) {
    const QueryGroup& group = plan.groups[tasks[t].group];
    for (size_t qi = task_done[t]; qi < tasks[t].queries.end; ++qi) {
      query_ok[group.queries[qi]] = 0;
    }
  }

  // Merge. Tasks were built group-major with ascending shards, and each
  // query lives in exactly one group, so appending spans in task order
  // yields ascending ids — byte-identical to the serial answer. Spans of
  // cut-off queries (complete in one shard, stopped in another) are
  // dropped: a returned answer is always a whole answer.
  std::vector<uint32_t> totals(queries.size(), 0);
  for (const auto& spans : task_spans) {
    for (const MatchSpan& s : spans) totals[s.query] += s.count;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (query_ok[i]) result.matches[i].reserve(totals[i]);
  }
  for (const auto& spans : task_spans) {
    for (const MatchSpan& s : spans) {
      if (!query_ok[s.query]) continue;
      result.matches[s.query].insert(result.matches[s.query].end(), s.data,
                                     s.data + s.count);
    }
  }

  result.completed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (query_ok[i]) {
      ++result.completed;
    } else {
      result.statuses[i] = ctx.StopStatus();
    }
  }
  result.truncated = result.completed < queries.size();

  if (ctx.stats != nullptr) {
    // pool_opens counts threads actually spawned by this batch; an injected
    // executor keeps its helpers parked afterwards (closes = 0), a local one
    // joins them when it goes out of scope.
    exec_stats.pool_opens = helpers_spawned;
    exec_stats.pool_closes = local_executor != nullptr ? helpers_spawned : 0;
    uint64_t total_tasks = 0;
    for (size_t w = 0; w < workers; ++w) {
      total_tasks += executor->scratch(w).tasks_run;
    }
    exec_stats.tasks_executed = total_tasks;
    // Tasks a worker ran beyond its fair share (⌈tasks/active workers⌉)
    // were dynamically drained from slower workers.
    const size_t active_workers = std::min(workers, tasks.size());
    const uint64_t fair =
        active_workers == 0
            ? total_tasks
            : (total_tasks + active_workers - 1) / active_workers;
    for (size_t w = 0; w < workers; ++w) {
      const uint64_t ran = executor->scratch(w).tasks_run;
      if (ran > fair) exec_stats.tasks_stolen += ran - fair;
    }
    ctx.stats->Record(exec_stats);
  }

  // A borrowed executor outlives this batch: the merged vectors above are
  // the only survivors of the task output, so rewind its arenas (and the
  // per-batch task counters) before handing it back.
  if (local_executor == nullptr) executor->ResetScratch();
  return result;
}

std::string ToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSequentialScan:
      return "sequential_scan";
    case EngineKind::kTrieIndex:
      return "trie_index";
    case EngineKind::kCompressedTrieIndex:
      return "compressed_trie_index";
    case EngineKind::kPartitionIndex:
      return "partition_index";
  }
  return "?";
}

std::string ToString(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kSerial:
      return "serial";
    case ExecutionStrategy::kThreadPerQuery:
      return "thread_per_query";
    case ExecutionStrategy::kFixedPool:
      return "fixed_pool";
    case ExecutionStrategy::kAdaptive:
      return "adaptive";
    case ExecutionStrategy::kSharded:
      return "sharded";
  }
  return "?";
}

Result<std::unique_ptr<Searcher>> MakeSearcher(EngineKind kind,
                                               SnapshotHandle snapshot) {
  if (snapshot == nullptr) {
    return Status::Invalid("MakeSearcher: null snapshot");
  }
  const Dataset& dataset = snapshot->dataset();
  switch (kind) {
    case EngineKind::kSequentialScan:
      return std::unique_ptr<Searcher>(
          new SequentialScanSearcher(std::move(snapshot), ScanOptions{}));
    case EngineKind::kTrieIndex: {
      auto trie = std::make_unique<TrieSearcher>(std::move(snapshot));
      return std::unique_ptr<Searcher>(std::move(trie));
    }
    case EngineKind::kCompressedTrieIndex: {
      auto trie = std::make_unique<CompressedTrieSearcher>(std::move(snapshot));
      return std::unique_ptr<Searcher>(std::move(trie));
    }
    case EngineKind::kPartitionIndex: {
      PartitionIndexOptions options;
      // Cover the workload's Table-I threshold ladder.
      options.max_k = dataset.alphabet() == AlphabetKind::kDna ? 16 : 3;
      return std::unique_ptr<Searcher>(
          new PartitionIndexSearcher(std::move(snapshot), options));
    }
  }
  return Status::Invalid("unknown engine kind");
}

Result<std::unique_ptr<Searcher>> MakeSearcher(EngineKind kind,
                                               const Dataset& dataset) {
  return MakeSearcher(kind, CollectionSnapshot::Borrow(dataset));
}

}  // namespace sss
