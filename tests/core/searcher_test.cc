#include "core/searcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

constexpr ExecutionStrategy kAllStrategies[] = {
    ExecutionStrategy::kSerial, ExecutionStrategy::kThreadPerQuery,
    ExecutionStrategy::kFixedPool, ExecutionStrategy::kAdaptive,
    ExecutionStrategy::kSharded};

TEST(SearcherFactoryTest, BuildsEveryEngineKind) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("alpha");
  d.Add("beta");
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    auto searcher = MakeSearcher(kind, d);
    ASSERT_TRUE(searcher.ok()) << ToString(kind);
    EXPECT_EQ((*searcher)->name(), ToString(kind));
    EXPECT_EQ((*searcher)->Search({"alpha", 0}), (MatchList{0}));
  }
}

TEST(SearcherFactoryTest, ToStringNames) {
  EXPECT_EQ(ToString(EngineKind::kSequentialScan), "sequential_scan");
  EXPECT_EQ(ToString(EngineKind::kTrieIndex), "trie_index");
  EXPECT_EQ(ToString(EngineKind::kCompressedTrieIndex),
            "compressed_trie_index");
}

// The paper's central correctness requirement: both competitors (and the
// compressed variant) return identical results on identical batches.
class EngineAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineAgreementTest, AllEnginesReturnIdenticalBatches) {
  const auto [alphabet, max_k] = GetParam();
  Xoshiro256 rng(0xA6EE);
  Dataset d = RandomDataset(&rng, alphabet, 250, 1, 30);
  std::vector<std::unique_ptr<Searcher>> engines;
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    engines.push_back(std::move(MakeSearcher(kind, d)).ValueOrDie());
  }
  QuerySet queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back({RandomString(&rng, alphabet, 1, 30),
                       static_cast<int>(rng.Uniform(max_k + 1))});
  }
  const SearchResults reference =
      engines[0]->SearchBatch(queries, {ExecutionStrategy::kSerial, 0});
  // Cross-check a sample against brute force.
  for (size_t i = 0; i < queries.size(); i += 7) {
    ASSERT_EQ(reference[i], BruteForceSearch(d, queries[i])) << i;
  }
  for (size_t e = 1; e < engines.size(); ++e) {
    EXPECT_EQ(
        engines[e]->SearchBatch(queries, {ExecutionStrategy::kSerial, 0}),
        reference)
        << engines[e]->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EngineAgreementTest,
    ::testing::Values(std::make_tuple(std::string("abcdefgh -"), 3),
                      std::make_tuple(std::string("ACGNT"), 8)));

TEST(SearcherBatchTest, AllStrategiesProduceSameResults) {
  Xoshiro256 rng(0xA6EF);
  Dataset d = RandomDataset(&rng, "abcd", 150, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kTrieIndex, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 25; ++i) {
    queries.push_back(
        {RandomString(&rng, "abcd", 1, 12), static_cast<int>(i % 3)});
  }
  const SearchResults serial =
      searcher->SearchBatch(queries, {ExecutionStrategy::kSerial, 0});
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kThreadPerQuery, ExecutionStrategy::kFixedPool,
        ExecutionStrategy::kAdaptive}) {
    EXPECT_EQ(searcher->SearchBatch(queries, {strategy, 4}), serial)
        << static_cast<int>(strategy);
  }
}

TEST(SearcherBatchTest, EmptyBatchIsEmpty) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("a");
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kSerial, ExecutionStrategy::kThreadPerQuery,
        ExecutionStrategy::kFixedPool, ExecutionStrategy::kAdaptive}) {
    EXPECT_TRUE(searcher->SearchBatch({}, {strategy, 2}).empty());
  }
}

// Every strategy must honor stop conditions: a batch whose deadline expired
// before it started returns all-empty with every query tagged kCancelled.
TEST(SearchCancellationTest, ExpiredDeadlineTruncatesEveryStrategy) {
  Xoshiro256 rng(0xDEAD);
  Dataset d = RandomDataset(&rng, "abcd", 200, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  SearchContext ctx;
  ctx.deadline = Deadline::AfterMillis(-1);
  ctx.check_interval = 1;
  for (ExecutionStrategy strategy : kAllStrategies) {
    const BatchResult batch =
        searcher->SearchBatch(queries, {strategy, 2}, ctx);
    EXPECT_TRUE(batch.truncated) << static_cast<int>(strategy);
    EXPECT_EQ(batch.completed, 0u) << static_cast<int>(strategy);
    ASSERT_EQ(batch.statuses.size(), queries.size());
    ASSERT_EQ(batch.matches.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(batch.statuses[i].IsCancelled())
          << static_cast<int>(strategy) << " query " << i;
      EXPECT_TRUE(batch.matches[i].empty())
          << static_cast<int>(strategy) << " query " << i;
    }
  }
}

TEST(SearchCancellationTest, PreCancelledTokenTruncatesEveryStrategy) {
  Xoshiro256 rng(0xDEAE);
  Dataset d = RandomDataset(&rng, "abcd", 200, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kTrieIndex, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  CancellationToken token;
  token.Cancel();
  SearchContext ctx;
  ctx.cancellation = &token;
  ctx.check_interval = 1;
  for (ExecutionStrategy strategy : kAllStrategies) {
    const BatchResult batch =
        searcher->SearchBatch(queries, {strategy, 2}, ctx);
    EXPECT_TRUE(batch.truncated) << static_cast<int>(strategy);
    EXPECT_EQ(batch.completed, 0u) << static_cast<int>(strategy);
    for (const Status& st : batch.statuses) {
      EXPECT_TRUE(st.IsCancelled()) << static_cast<int>(strategy);
    }
  }
}

// With an inactive context the context-taking entry points are equivalent
// to the convenience overloads, for every engine and strategy.
TEST(SearchCancellationTest, InactiveContextMatchesConvenienceOverloads) {
  Xoshiro256 rng(0xDEAF);
  Dataset d = RandomDataset(&rng, "abcd", 150, 1, 12);
  QuerySet queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), i % 3});
  }
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    auto searcher = std::move(MakeSearcher(kind, d)).ValueOrDie();
    for (const Query& q : queries) {
      MatchList via_ctx;
      ASSERT_TRUE(searcher->Search(q, SearchContext{}, &via_ctx).ok());
      ASSERT_EQ(via_ctx, searcher->Search(q)) << ToString(kind);
    }
    for (ExecutionStrategy strategy : kAllStrategies) {
      const BatchResult batch =
          searcher->SearchBatch(queries, {strategy, 2}, SearchContext{});
      EXPECT_FALSE(batch.truncated);
      EXPECT_EQ(batch.completed, queries.size());
      EXPECT_EQ(batch.matches,
                searcher->SearchBatch(queries, {strategy, 2}))
          << ToString(kind) << " strategy " << static_cast<int>(strategy);
    }
  }
}

// A stub engine that cancels the shared token partway through the batch, to
// exercise mid-flight truncation: completed queries keep full answers, the
// rest come back empty + kCancelled, and nothing hangs.
class SelfCancellingSearcher final : public Searcher {
 public:
  SelfCancellingSearcher(CancellationToken* token, int cancel_at_call)
      : token_(token), cancel_at_call_(cancel_at_call) {}

  using Searcher::Search;
  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override {
    (void)query;
    if (calls_.fetch_add(1) + 1 == cancel_at_call_) token_->Cancel();
    if (ctx.CanStop() && ctx.StopRequested()) {
      out->clear();
      return ctx.StopStatus();
    }
    out->push_back(42);
    return Status::OK();
  }
  std::string name() const override { return "self_cancelling"; }

 private:
  CancellationToken* token_;
  int cancel_at_call_;
  mutable std::atomic<int> calls_{0};
};

TEST(SearchCancellationTest, MidBatchCancelReturnsCompletedSubset) {
  QuerySet queries;
  for (int i = 0; i < 64; ++i) queries.push_back({"q", 0});
  for (ExecutionStrategy strategy : kAllStrategies) {
    CancellationToken token;
    SelfCancellingSearcher searcher(&token, /*cancel_at_call=*/8);
    SearchContext ctx;
    ctx.cancellation = &token;
    const BatchResult batch =
        searcher.SearchBatch(queries, {strategy, 4}, ctx);
    EXPECT_TRUE(batch.truncated) << static_cast<int>(strategy);
    EXPECT_LT(batch.completed, queries.size()) << static_cast<int>(strategy);
    // Per-query invariant: an OK status carries the full answer, a
    // cancelled one carries nothing.
    for (size_t i = 0; i < queries.size(); ++i) {
      if (batch.statuses[i].ok()) {
        EXPECT_EQ(batch.matches[i], (MatchList{42}))
            << static_cast<int>(strategy) << " query " << i;
      } else {
        EXPECT_TRUE(batch.statuses[i].IsCancelled());
        EXPECT_TRUE(batch.matches[i].empty())
            << static_cast<int>(strategy) << " query " << i;
      }
    }
  }
}

TEST(SearchCancellationTest, SerialBatchStopsPromptlyOnCancel) {
  QuerySet queries;
  for (int i = 0; i < 64; ++i) queries.push_back({"q", 0});
  CancellationToken token;
  SelfCancellingSearcher searcher(&token, /*cancel_at_call=*/8);
  SearchContext ctx;
  ctx.cancellation = &token;
  const BatchResult batch =
      searcher.SearchBatch(queries, {ExecutionStrategy::kSerial, 0}, ctx);
  // Serial order is deterministic: calls 1-7 complete, call 8 cancels
  // itself, everything after is skipped by the driver.
  EXPECT_EQ(batch.completed, 7u);
  EXPECT_TRUE(batch.truncated);
  for (size_t i = 0; i < 7; ++i) EXPECT_TRUE(batch.statuses[i].ok()) << i;
  for (size_t i = 7; i < queries.size(); ++i) {
    EXPECT_TRUE(batch.statuses[i].IsCancelled()) << i;
  }
}

// Deadline-bounded real search: a generous deadline changes nothing.
TEST(SearchCancellationTest, GenerousDeadlineCompletesEverything) {
  Xoshiro256 rng(0xDEB0);
  Dataset d = RandomDataset(&rng, "abcd", 150, 1, 12);
  auto searcher =
      std::move(MakeSearcher(EngineKind::kSequentialScan, d)).ValueOrDie();
  QuerySet queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back({RandomString(&rng, "abcd", 1, 12), 1});
  }
  const SearchResults reference = searcher->SearchBatch(
      queries, {ExecutionStrategy::kSerial, 0});
  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  for (ExecutionStrategy strategy : kAllStrategies) {
    const BatchResult batch =
        searcher->SearchBatch(queries, {strategy, 2}, ctx);
    EXPECT_FALSE(batch.truncated) << static_cast<int>(strategy);
    EXPECT_EQ(batch.completed, queries.size());
    EXPECT_EQ(batch.matches, reference) << static_cast<int>(strategy);
  }
}

TEST(SearcherTest, IndexMemoryIsReported) {
  Xoshiro256 rng(0xA6F0);
  Dataset d = RandomDataset(&rng, "abcdef", 500, 4, 20);
  auto trie = std::move(MakeSearcher(EngineKind::kTrieIndex, d)).ValueOrDie();
  auto radix = std::move(MakeSearcher(EngineKind::kCompressedTrieIndex, d))
                   .ValueOrDie();
  EXPECT_GT(trie->memory_bytes(), 0u);
  EXPECT_GT(radix->memory_bytes(), 0u);
  EXPECT_LT(radix->memory_bytes(), trie->memory_bytes())
      << "compression should reduce index memory";
}

}  // namespace
}  // namespace sss
