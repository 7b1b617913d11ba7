// The observability acceptance test: the engine-side counters an engine
// reports for a batch must not depend on which execution strategy ran it.
// Execution-layer counters (pool opens, task claims) legitimately differ per
// strategy and are checked separately for their own invariants.
#include <gtest/gtest.h>

#include "approx/approx_searcher.h"
#include "core/engine_host.h"
#include "core/searcher.h"
#include "io/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "test_util.h"
#include "util/kernel_dispatch.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace sss {
namespace {

using sss::testing::RandomDataset;
using sss::testing::RandomString;

constexpr ExecutionStrategy kAllStrategies[] = {
    ExecutionStrategy::kSerial, ExecutionStrategy::kThreadPerQuery,
    ExecutionStrategy::kFixedPool, ExecutionStrategy::kAdaptive,
    ExecutionStrategy::kSharded};

// Zeroes the counters owned by the execution layer, leaving only what the
// engine itself reported. planner_skipped_queries is also execution-side:
// only the sharded planner groups (and thus can skip) queries.
SearchStats EngineSide(SearchStats s) {
  s.planner_skipped_queries = 0;
  s.pool_opens = 0;
  s.pool_closes = 0;
  s.tasks_executed = 0;
  s.tasks_stolen = 0;
  return s;
}

SearchStats CollectBatchStats(const Searcher& searcher,
                              const QuerySet& queries,
                              ExecutionStrategy strategy,
                              KernelTierChoice tier = KernelTierChoice::kScalar) {
  StatsSink sink;
  SearchContext ctx;
  ctx.stats = &sink;
  ctx.kernel_tier = tier;
  const BatchResult batch = searcher.SearchBatch(queries, {strategy, 4}, ctx);
  EXPECT_FALSE(batch.truncated) << static_cast<int>(strategy);
  EXPECT_EQ(batch.completed, queries.size()) << static_cast<int>(strategy);
  return sink.Collected();
}

// Query lengths stay within the dataset's length range: a query the batch
// planner can prove unanswerable is skipped by the sharded strategy without
// running any engine code, so it legitimately records less engine-side work
// than the strategies that execute it (covered by PlannerSkipsCountQueries).
QuerySet MakeQueries(Xoshiro256* rng, const char* alphabet, int count,
                     int max_len, int max_k) {
  QuerySet queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back({RandomString(rng, alphabet, 1, max_len),
                       static_cast<int>(rng->Uniform(max_k + 1))});
  }
  return queries;
}

TEST(StatsConsistencyTest, ScanCountersIdenticalAcrossStrategies) {
  Xoshiro256 rng(0x57A7);
  Dataset d = RandomDataset(&rng, "abcdefgh -", 250, 1, 30);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  const QuerySet queries = MakeQueries(&rng, "abcdefgh -", 40, 30, 2);

  const SearchStats serial = EngineSide(
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial));
  // The scan visits every string for every query, funnels through the
  // length filter, and verifies the survivors with the banded kernel.
  EXPECT_EQ(serial.candidates_considered, queries.size() * d.size());
  EXPECT_GT(serial.length_filter_rejects, 0u);
  EXPECT_GT(serial.verify_calls, 0u);
  if (ResolveKernelTier(KernelTierChoice::kScalar) == KernelTier::kScalar) {
    EXPECT_GT(serial.dp_early_aborts, 0u);
  } else {
    // A forced lane tier (SSS_FORCE_KERNEL_TIER) bypasses the per-pair DP;
    // its verifications surface as lane counters instead.
    EXPECT_GT(serial.simd_lanes_verified, 0u);
  }
  EXPECT_EQ(serial.candidates_considered,
            serial.length_filter_rejects + serial.frequency_filter_rejects +
                serial.verify_calls);

  for (ExecutionStrategy strategy : kAllStrategies) {
    if (strategy == ExecutionStrategy::kSerial) continue;
    const SearchStats got =
        EngineSide(CollectBatchStats(*searcher, queries, strategy));
    EXPECT_EQ(got, serial) << "strategy " << ToString(strategy) << "\nserial:\n"
                           << serial.ToString() << "\ngot:\n"
                           << got.ToString();
  }
}

TEST(StatsConsistencyTest, IndexEngineCountersIdenticalAcrossStrategies) {
  Xoshiro256 rng(0x57A8);
  Dataset d = RandomDataset(&rng, "abcd", 200, 1, 20);
  const QuerySet queries = MakeQueries(&rng, "abcd", 24, 20, 2);
  for (EngineKind kind :
       {EngineKind::kTrieIndex, EngineKind::kCompressedTrieIndex,
        EngineKind::kPartitionIndex}) {
    auto searcher = std::move(MakeSearcher(kind, d)).ValueOrDie();
    const SearchStats serial = EngineSide(
        CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial));
    EXPECT_GT(serial.matches_found, 0u) << ToString(kind);
    for (ExecutionStrategy strategy : kAllStrategies) {
      if (strategy == ExecutionStrategy::kSerial) continue;
      const SearchStats got =
          EngineSide(CollectBatchStats(*searcher, queries, strategy));
      EXPECT_EQ(got, serial)
          << ToString(kind) << " under " << ToString(strategy) << "\nserial:\n"
          << serial.ToString() << "\ngot:\n"
          << got.ToString();
    }
  }
}

// The lane tiers must keep the counters strategy-independent too: a lane
// group straddling a shard boundary is re-verified by the neighbouring
// shard, but each candidate's verdict is consumed exactly once, so the
// funnel totals cannot depend on the shard geometry.
TEST(StatsConsistencyTest, LaneTierCountersIdenticalAcrossStrategies) {
  if (KernelTierForced()) {
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER overrides the context choice";
  }
  Xoshiro256 rng(0x57AE);
  Dataset d = RandomDataset(&rng, "ACGT", 240, 1, 30, AlphabetKind::kDna);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  const QuerySet queries = MakeQueries(&rng, "ACGT", 32, 30, 2);

  const SearchStats serial = EngineSide(CollectBatchStats(
      *searcher, queries, ExecutionStrategy::kSerial, KernelTierChoice::kSwar));
  EXPECT_EQ(serial.candidates_considered, queries.size() * d.size());
  EXPECT_GT(serial.simd_lanes_verified, 0u);
  // Every eligible query runs through the lane path; nothing falls back.
  EXPECT_EQ(serial.simd_fallback_pairs, 0u);
  EXPECT_EQ(serial.simd_lanes_verified + serial.simd_fallback_pairs,
            serial.verify_calls);
  // The lane kernels retire a group once every lane is settled: some
  // verified lanes end before their last column, and those count as early
  // aborts.
  EXPECT_GT(serial.dp_early_aborts, 0u);
  EXPECT_GT(serial.simd_lane_columns, 0u);
  EXPECT_EQ(serial.candidates_considered,
            serial.length_filter_rejects + serial.verify_calls);

  for (ExecutionStrategy strategy : kAllStrategies) {
    if (strategy == ExecutionStrategy::kSerial) continue;
    const SearchStats got = EngineSide(CollectBatchStats(
        *searcher, queries, strategy, KernelTierChoice::kSwar));
    EXPECT_EQ(got, serial) << "strategy " << ToString(strategy) << "\nserial:\n"
                           << serial.ToString() << "\ngot:\n"
                           << got.ToString();
  }
}

// The retire column of a lane group depends on the group, the query and k
// only. So simd_lane_columns and dp_early_aborts must not move when sharding
// cuts through lane groups, nor between the SWAR and AVX2 tiers, on either
// the banded kernel (k <= kMaxBandedLaneK) or the blocked one (k above it).
TEST(StatsConsistencyTest, LaneRetireCountersIdenticalAcrossShardsAndTiers) {
  if (KernelTierForced()) {
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER overrides the context choice";
  }
  Xoshiro256 rng(0x57B1);
  Dataset d = RandomDataset(&rng, "ACGT", 300, 20, 90, AlphabetKind::kDna);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  // Query lengths stay inside the corpus range so no strategy skips one.
  QuerySet queries;
  for (int k : {0, 1, 4, 8, 12, 31, 32, 40}) {
    queries.push_back({RandomString(&rng, "ACGT", 20, 90), k});
  }

  const auto collect = [&](ExecutionOptions exec, KernelTierChoice tier) {
    StatsSink sink;
    SearchContext ctx;
    ctx.stats = &sink;
    ctx.kernel_tier = tier;
    const BatchResult batch = searcher->SearchBatch(queries, exec, ctx);
    EXPECT_EQ(batch.completed, queries.size());
    SearchStats s = EngineSide(sink.Collected());
    s.dispatch_tier = 0;  // a label, not work
    return s;
  };
  ExecutionOptions serial_exec;
  serial_exec.strategy = ExecutionStrategy::kSerial;
  ExecutionOptions sharded_exec;
  sharded_exec.strategy = ExecutionStrategy::kSharded;
  sharded_exec.num_threads = 3;
  sharded_exec.shard_size = 7;  // not a multiple of the lane width

  const SearchStats want = collect(serial_exec, KernelTierChoice::kSwar);
  EXPECT_GT(want.dp_early_aborts, 0u);
  EXPECT_LT(want.dp_early_aborts, want.simd_lanes_verified);
  EXPECT_GT(want.simd_lane_columns, 0u);
  std::vector<KernelTierChoice> tiers = {KernelTierChoice::kSwar};
  if (DetectCpuKernelTier() == KernelTier::kAvx2) {
    tiers.push_back(KernelTierChoice::kAvx2);
  }
  for (KernelTierChoice tier : tiers) {
    for (const ExecutionOptions& exec : {serial_exec, sharded_exec}) {
      const SearchStats got = collect(exec, tier);
      EXPECT_EQ(got, want) << "tier " << ToString(tier) << " strategy "
                           << ToString(exec.strategy) << "\nwant:\n"
                           << want.ToString() << "\ngot:\n"
                           << got.ToString();
    }
  }
}

// simd_lanes_verified and simd_fallback_pairs partition verify_calls: a
// batch mixing lane-eligible queries with an empty query (per-pair
// fallback) must account for every verification in exactly one of the two.
TEST(StatsConsistencyTest, LaneAndFallbackPairsPartitionVerifyCalls) {
  if (KernelTierForced()) {
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER overrides the context choice";
  }
  Xoshiro256 rng(0x57AF);
  Dataset d = RandomDataset(&rng, "ACGT", 150, 1, 20, AlphabetKind::kDna);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries = MakeQueries(&rng, "ACGT", 10, 20, 2);
  queries.push_back({"", 2});  // empty query: per-pair fallback, counted

  const SearchStats stats = CollectBatchStats(
      *searcher, queries, ExecutionStrategy::kSerial, KernelTierChoice::kSwar);
  EXPECT_GT(stats.simd_lanes_verified, 0u);
  EXPECT_GT(stats.simd_fallback_pairs, 0u);  // len <= 2 strings verified
  EXPECT_EQ(stats.simd_lanes_verified + stats.simd_fallback_pairs,
            stats.verify_calls);

  // On the scalar tier both lane counters stay zero.
  const SearchStats scalar = CollectBatchStats(
      *searcher, queries, ExecutionStrategy::kSerial,
      KernelTierChoice::kScalar);
  EXPECT_EQ(scalar.simd_lanes_verified, 0u);
  EXPECT_EQ(scalar.simd_fallback_pairs, 0u);
}

// dispatch_tier is a once-per-batch label (0 = scalar, 1 = swar, 2 = avx2),
// recorded by both the flat and the sharded batch drivers.
TEST(StatsConsistencyTest, DispatchTierRecordsResolvedTier) {
  if (KernelTierForced()) {
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER overrides the context choice";
  }
  Xoshiro256 rng(0x57B0);
  Dataset d = RandomDataset(&rng, "ACGT", 60, 1, 16, AlphabetKind::kDna);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  const QuerySet queries = MakeQueries(&rng, "ACGT", 6, 16, 1);

  EXPECT_EQ(CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial,
                              KernelTierChoice::kScalar)
                .dispatch_tier,
            0u);
  EXPECT_EQ(CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial,
                              KernelTierChoice::kSwar)
                .dispatch_tier,
            1u);
  EXPECT_EQ(CollectBatchStats(*searcher, queries, ExecutionStrategy::kSharded,
                              KernelTierChoice::kSwar)
                .dispatch_tier,
            1u);
  EXPECT_EQ(CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial,
                              KernelTierChoice::kAuto)
                .dispatch_tier,
            static_cast<uint64_t>(DetectCpuKernelTier()));
}

TEST(StatsConsistencyTest, PlannerSkipsCountQueries) {
  // Queries provably unanswerable from their length alone (longer than the
  // longest string plus k) are answered by the sharded planner without
  // touching the engine — and the skip is visible in the stats.
  Xoshiro256 rng(0x57AD);
  Dataset d = RandomDataset(&rng, "abcd", 100, 1, 10);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries = MakeQueries(&rng, "abcd", 8, 10, 1);
  const size_t impossible = 4;
  for (size_t i = 0; i < impossible; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 40, 40), 1});
  }
  const SearchStats sharded =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSharded);
  EXPECT_EQ(sharded.planner_skipped_queries, impossible);
  // The serial driver runs every query; nothing is planner-skipped.
  const SearchStats serial =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial);
  EXPECT_EQ(serial.planner_skipped_queries, 0u);
}

TEST(StatsConsistencyTest, TrieReportsTraversalWork) {
  Xoshiro256 rng(0x57A9);
  Dataset d = RandomDataset(&rng, "abcd", 300, 2, 16);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kTrieIndex, d)).ValueOrDie();
  const QuerySet queries = MakeQueries(&rng, "abcd", 16, 16, 1);
  const SearchStats stats =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial);
  EXPECT_GT(stats.trie_nodes_visited, 0u);
  EXPECT_GT(stats.trie_nodes_pruned, 0u);
}

TEST(StatsConsistencyTest, MatchesFoundAgreesWithReturnedMatches) {
  Xoshiro256 rng(0x57AA);
  Dataset d = RandomDataset(&rng, "abc", 150, 1, 10);
  const QuerySet queries = MakeQueries(&rng, "abc", 20, 10, 2);
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kPartitionIndex}) {
    auto searcher = std::move(MakeSearcher(kind, d)).ValueOrDie();
    StatsSink sink;
    SearchContext ctx;
    ctx.stats = &sink;
    const BatchResult batch =
        searcher->SearchBatch(queries, {ExecutionStrategy::kSerial, 0}, ctx);
    size_t total_matches = 0;
    for (const MatchList& m : batch.matches) total_matches += m.size();
    EXPECT_EQ(sink.Collected().matches_found, total_matches) << ToString(kind);
  }
}

TEST(StatsConsistencyTest, ExecutorCountersReflectStrategy) {
  Xoshiro256 rng(0x57AB);
  Dataset d = RandomDataset(&rng, "abcd", 100, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  const QuerySet queries = MakeQueries(&rng, "abcd", 12, 12, 1);

  const SearchStats serial =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSerial);
  EXPECT_EQ(serial.pool_opens, 0u);
  EXPECT_EQ(serial.tasks_executed, queries.size());

  const SearchStats per_query =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kThreadPerQuery);
  EXPECT_EQ(per_query.pool_opens, queries.size());
  EXPECT_EQ(per_query.pool_closes, queries.size());
  EXPECT_EQ(per_query.tasks_executed, queries.size());

  const SearchStats pooled =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kFixedPool);
  EXPECT_GT(pooled.pool_opens, 0u);
  EXPECT_EQ(pooled.pool_opens, pooled.pool_closes);
  EXPECT_GT(pooled.tasks_executed, 0u);

  const SearchStats adaptive =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kAdaptive);
  EXPECT_EQ(adaptive.tasks_executed, queries.size());
  EXPECT_EQ(adaptive.pool_opens, adaptive.pool_closes);

  const SearchStats sharded =
      CollectBatchStats(*searcher, queries, ExecutionStrategy::kSharded);
  EXPECT_GT(sharded.tasks_executed, 0u);
  EXPECT_EQ(sharded.pool_opens, sharded.pool_closes);
}

// The approx tier must report the same funnel no matter which strategy ran
// the batch — candidate generation is deterministic (content-seeded tables)
// and verification totals are order-independent.
TEST(StatsConsistencyTest, ApproxCountersIdenticalAcrossStrategies) {
  Xoshiro256 rng(0x57B1);
  Dataset d = RandomDataset(&rng, "ACGT", 400, 20, 40, AlphabetKind::kDna);
  const SnapshotHandle snapshot = CollectionSnapshot::Create(std::move(d));
  const ApproxSearcher searcher(snapshot);
  const Dataset& data = snapshot->dataset();
  QuerySet queries;
  for (int i = 0; i < 24; ++i) {
    std::string text(data.View(rng.Uniform(data.size())));
    if (i % 3 != 0) text[rng.Uniform(text.size())] = "ACGT"[rng.Uniform(4)];
    queries.push_back({std::move(text), static_cast<int>(rng.Uniform(5))});
  }

  const SearchStats serial = EngineSide(
      CollectBatchStats(searcher, queries, ExecutionStrategy::kSerial));
  // The approx funnel partitions exactly: every generated candidate is
  // either filtered (duplicate / length reject) or verified, and the exact
  // kernel runs only on verified candidates.
  EXPECT_GT(serial.approx_candidates_generated, 0u);
  EXPECT_EQ(serial.approx_candidates_generated,
            serial.approx_candidates_filtered +
                serial.approx_candidates_verified);
  EXPECT_EQ(serial.verify_calls, serial.approx_candidates_verified);
  EXPECT_EQ(serial.candidates_considered,
            serial.length_filter_rejects + serial.verify_calls);
  EXPECT_EQ(serial.approx_embeddings_built,
            queries.size() * searcher.index().tables());
  EXPECT_GT(serial.approx_buckets_probed, 0u);

  for (ExecutionStrategy strategy : kAllStrategies) {
    if (strategy == ExecutionStrategy::kSerial) continue;
    const SearchStats got =
        EngineSide(CollectBatchStats(searcher, queries, strategy));
    EXPECT_EQ(got, serial) << "strategy " << ToString(strategy) << "\nserial:\n"
                           << serial.ToString() << "\ngot:\n"
                           << got.ToString();
  }
}

// The serving-layer window funnel: every batched window holds at least two
// requests (min window is 2), no request lands in more than one window, and
// lock-step singletons move neither counter — so depth_sum is bracketed by
// 2 x windows below and by the request total above, whatever mix of drains
// the reactor happened to see.
TEST(StatsConsistencyTest, ServingWindowFunnelInvariants) {
  Xoshiro256 rng(0x57B2);
  Dataset d = RandomDataset(&rng, "abcdefgh", 120, 2, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();

  StatsSink sink;
  server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.stats = &sink;
  EngineHost host(std::vector<EngineSpec>{});
  ASSERT_TRUE(testing::PublishEngine(&host, searcher.get()).ok());
  server::Server server(options);
  ASSERT_TRUE(server.RegisterHost(&host).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = server::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  constexpr size_t kDepth = 6;
  constexpr size_t kRounds = 4;
  constexpr size_t kSingletons = 3;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kDepth; ++i) {
      server::Request request;
      request.engine = server::kAnyEngine;
      request.k = 1;
      request.query = RandomString(&rng, "abcdefgh", 2, 10);
      ASSERT_TRUE(client->Send(std::move(request)).ok());
    }
    for (size_t i = 0; i < kDepth; ++i) {
      server::Response response;
      ASSERT_TRUE(client->Receive(&response).ok());
      EXPECT_EQ(response.code, StatusCode::kOk);
    }
  }
  for (size_t i = 0; i < kSingletons; ++i) {
    server::Response response;
    ASSERT_TRUE(client->Search("abc", 1, 0, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kOk);
  }
  server.Stop();

  const SearchStats collected = sink.Collected();
  EXPECT_GE(collected.server_window_depth_sum,
            2 * collected.server_windows_batched);
  // Singletons (and the lock-step tail of a split window) never count, so
  // the depth sum can only cover the pipelined share of the requests.
  EXPECT_LE(collected.server_window_depth_sum, kDepth * kRounds);
  EXPECT_EQ(collected.server_requests_accepted,
            kDepth * kRounds + kSingletons);
}

TEST(StatsConsistencyTest, NoSinkMeansNoCrash) {
  Xoshiro256 rng(0x57AC);
  Dataset d = RandomDataset(&rng, "ab", 50, 1, 8);
  const QuerySet queries = MakeQueries(&rng, "ab", 8, 8, 1);
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex}) {
    auto searcher = std::move(MakeSearcher(kind, d)).ValueOrDie();
    for (ExecutionStrategy strategy : kAllStrategies) {
      const BatchResult batch =
          searcher->SearchBatch(queries, {strategy, 2}, SearchContext{});
      EXPECT_EQ(batch.completed, queries.size());
    }
  }
}

}  // namespace
}  // namespace sss
