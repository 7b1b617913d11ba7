#include "util/search_stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sss {
namespace {

TEST(SearchStatsTest, DefaultIsAllZero) {
  SearchStats s;
  EXPECT_EQ(s, SearchStats{});
  EXPECT_EQ(s.candidates_considered, 0u);
  EXPECT_EQ(s.tasks_stolen, 0u);
}

TEST(SearchStatsTest, AddSumsEveryField) {
  SearchStats a, b;
  // Give every counter a distinct value via the X-macro so a drifted Add()
  // (a forgotten field) fails loudly.
  uint64_t v = 1;
#define SSS_SET_STAT(name) \
  a.name = v;              \
  b.name = 10 * v;         \
  ++v;
  SSS_FOR_EACH_SEARCH_STAT(SSS_SET_STAT)
#undef SSS_SET_STAT
  a.Add(b);
  v = 1;
#define SSS_CHECK_STAT(name) EXPECT_EQ(a.name, 11 * v) << #name; ++v;
  SSS_FOR_EACH_SEARCH_STAT(SSS_CHECK_STAT)
#undef SSS_CHECK_STAT
}

TEST(SearchStatsTest, AddKernelDeltaFoldsDifferences) {
  SearchStats s;
  KernelCounters before;
  before.banded_calls = 5;
  before.myers_calls = 2;
  before.early_aborts = 1;
  KernelCounters after;
  after.banded_calls = 15;
  after.myers_calls = 2;
  after.early_aborts = 4;
  s.AddKernelDelta(after, before);
  EXPECT_EQ(s.kernel_banded_calls, 10u);
  EXPECT_EQ(s.kernel_myers_calls, 0u);
  EXPECT_EQ(s.dp_early_aborts, 3u);
}

TEST(SearchStatsTest, JsonAndStringMentionEveryCounter) {
  SearchStats s;
  s.candidates_considered = 42;
  const std::string json = s.ToJson();
  const std::string text = s.ToString();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"candidates_considered\":42"), std::string::npos)
      << json;
#define SSS_CHECK_STAT(name)                                         \
  EXPECT_NE(json.find("\"" #name "\":"), std::string::npos) << #name; \
  EXPECT_NE(text.find(#name "="), std::string::npos) << #name;
  SSS_FOR_EACH_SEARCH_STAT(SSS_CHECK_STAT)
#undef SSS_CHECK_STAT
}

TEST(SearchStatsTest, EqualityComparesFieldWise) {
  SearchStats a, b;
  a.trie_nodes_pruned = 7;
  EXPECT_NE(a, b);
  b.trie_nodes_pruned = 7;
  EXPECT_EQ(a, b);
}

TEST(StatsSinkTest, RecordAndCollect) {
  StatsSink sink;
  SearchStats delta;
  delta.verify_calls = 3;
  delta.matches_found = 1;
  sink.Record(delta);
  sink.Record(delta);
  const SearchStats total = sink.Collected();
  EXPECT_EQ(total.verify_calls, 6u);
  EXPECT_EQ(total.matches_found, 2u);
}

TEST(StatsSinkTest, ResetZeroesAllShards) {
  StatsSink sink;
  SearchStats delta;
  delta.degraded_probes = 9;
  sink.Record(delta);
  sink.Reset();
  EXPECT_EQ(sink.Collected(), SearchStats{});
}

TEST(StatsSinkTest, ConcurrentRecordsLoseNothing) {
  StatsSink sink;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      SearchStats delta;
      delta.candidates_considered = 1;
      delta.tasks_executed = 2;
      for (int i = 0; i < kPerThread; ++i) sink.Record(delta);
    });
  }
  for (auto& t : threads) t.join();
  const SearchStats total = sink.Collected();
  EXPECT_EQ(total.candidates_considered,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(total.tasks_executed,
            static_cast<uint64_t>(2 * kThreads) * kPerThread);
}

TEST(StatsScopeTest, FlushesToSinkAtDestruction) {
  StatsSink sink;
  {
    StatsScope scope(&sink);
    EXPECT_TRUE(scope.enabled());
    scope->length_filter_rejects = 4;
    (*scope).matches_found = 2;
    // Nothing visible until the scope closes.
    EXPECT_EQ(sink.Collected(), SearchStats{});
  }
  const SearchStats total = sink.Collected();
  EXPECT_EQ(total.length_filter_rejects, 4u);
  EXPECT_EQ(total.matches_found, 2u);
}

TEST(StatsScopeTest, NullSinkIsSafeAndDisabled) {
  StatsScope scope(nullptr);
  EXPECT_FALSE(scope.enabled());
  scope->verify_calls = 99;  // accumulates locally, discarded at scope exit
}

TEST(StatsScopeTest, ForwardsKernelDelta) {
  StatsSink sink;
  {
    StatsScope scope(&sink);
    KernelCounters before, after;
    after.banded_calls = 7;
    after.early_aborts = 2;
    scope.AddKernelDelta(after, before);
  }
  const SearchStats total = sink.Collected();
  EXPECT_EQ(total.kernel_banded_calls, 7u);
  EXPECT_EQ(total.dp_early_aborts, 2u);
}

}  // namespace
}  // namespace sss
