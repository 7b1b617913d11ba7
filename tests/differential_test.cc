// Differential fuzzing: for many random seeds, build a random workload
// (random alphabet, lengths, duplicates, thresholds) and require every
// engine to return byte-identical results, cross-checked against brute
// force. This is the paper's §3.1 correctness gate turned into a
// randomized regression net: any divergence between any two engines on any
// input is a failure, and the seed in the test name reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "approx/approx_searcher.h"
#include "core/searcher.h"
#include "io/snapshot.h"
#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomString;

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllEnginesAgreeOnRandomWorkload) {
  Xoshiro256 rng(GetParam());

  // Randomize the workload shape itself.
  static constexpr const char* kAlphabets[] = {
      "ab", "ACGNT", "abcdefghijklmnop", "aA -.'",
  };
  const std::string_view alphabet = kAlphabets[rng.Uniform(4)];
  const size_t n = 50 + rng.Uniform(250);
  const size_t min_len = rng.Uniform(4);
  const size_t max_len = min_len + 1 + rng.Uniform(30);
  const bool plant_duplicates = rng.Bernoulli(0.5);

  Dataset d("fuzz", alphabet == std::string_view("ACGNT")
                        ? AlphabetKind::kDna
                        : AlphabetKind::kGeneric);
  for (size_t i = 0; i < n; ++i) {
    if (plant_duplicates && i > 0 && rng.Bernoulli(0.15)) {
      d.Add(d.View(rng.Uniform(i)));  // exact duplicate of an earlier string
    } else {
      d.Add(RandomString(&rng, alphabet, min_len, max_len));
    }
  }

  std::vector<std::unique_ptr<Searcher>> engines;
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    engines.push_back(std::move(MakeSearcher(kind, d)).ValueOrDie());
  }
  // The approx tier is fuzzed alongside under its own (one-sided) contract:
  // whatever it returns must be a subset of brute force — a false positive
  // on any random workload is a failure.
  const ApproxSearcher approx(CollectionSnapshot::Borrow(d),
                              ApproxOptions{.tables = 4, .bits = 10});

  for (int t = 0; t < 25; ++t) {
    const int k = static_cast<int>(rng.Uniform(8));
    std::string text;
    switch (rng.Uniform(3)) {
      case 0:  // perturbed dataset string (hits likely)
        text = std::string(d.View(rng.Uniform(d.size())));
        for (int e = 0; e < k && !text.empty(); ++e) {
          text[rng.Uniform(text.size())] =
              alphabet[rng.Uniform(alphabet.size())];
        }
        break;
      case 1:  // fresh random string (misses likely)
        text = RandomString(&rng, alphabet, min_len, max_len);
        break;
      default:  // extreme length (edge cases)
        text = RandomString(&rng, alphabet, 0,
                            rng.Bernoulli(0.5) ? 1 : max_len + 6);
        break;
    }
    const Query q{text, k};
    const MatchList expected = BruteForceSearch(d, q);
    for (const auto& engine : engines) {
      ASSERT_EQ(engine->Search(q), expected)
          << "engine " << engine->name() << " seed " << GetParam()
          << " q='" << q.text << "' k=" << k;
    }
    const MatchList approximate = approx.Search(q);
    ASSERT_TRUE(std::includes(expected.begin(), expected.end(),
                              approximate.begin(), approximate.end()))
        << "approx false positive, seed " << GetParam() << " q='" << q.text
        << "' k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 17));

// Batch-vs-serial equivalence as a fuzzed invariant: every ExecutionStrategy
// must return byte-identical SearchResults on the same random workload, for
// every engine. A strategy is only an execution plan — any divergence
// (ordering, duplication, a dropped shard) is a bug, and the seed in the
// test name reproduces it.
class CrossStrategyDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossStrategyDifferentialTest, AllStrategiesAgreeOnRandomWorkload) {
  Xoshiro256 rng(GetParam());

  static constexpr const char* kAlphabets[] = {
      "ab", "ACGNT", "abcdefghijklmnop", "aA -.'",
  };
  const std::string_view alphabet = kAlphabets[rng.Uniform(4)];
  const size_t n = 100 + rng.Uniform(400);
  const size_t min_len = rng.Uniform(4);
  const size_t max_len = min_len + 1 + rng.Uniform(30);

  Dataset d("fuzz", alphabet == std::string_view("ACGNT")
                        ? AlphabetKind::kDna
                        : AlphabetKind::kGeneric);
  for (size_t i = 0; i < n; ++i) {
    d.Add(RandomString(&rng, alphabet, min_len, max_len));
  }

  std::vector<std::unique_ptr<Searcher>> engines;
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    engines.push_back(std::move(MakeSearcher(kind, d)).ValueOrDie());
  }
  // The approx tier joins the cross-strategy net compared against its own
  // serial baseline (a strategy is only an execution plan), not the
  // brute-force gate — recall is probabilistic, determinism is not.
  engines.push_back(std::make_unique<ApproxSearcher>(
      CollectionSnapshot::Borrow(d), ApproxOptions{.tables = 4, .bits = 10}));

  // A batch whose shape stresses the planner: mixed thresholds, mixed
  // lengths (including out-of-range ones that plan into skipped groups).
  QuerySet queries;
  const size_t batch = 20 + rng.Uniform(30);
  for (size_t i = 0; i < batch; ++i) {
    const int k = static_cast<int>(rng.Uniform(6));
    std::string text;
    switch (rng.Uniform(3)) {
      case 0:
        text = std::string(d.View(rng.Uniform(d.size())));
        for (int e = 0; e < k && !text.empty(); ++e) {
          text[rng.Uniform(text.size())] =
              alphabet[rng.Uniform(alphabet.size())];
        }
        break;
      case 1:
        text = RandomString(&rng, alphabet, min_len, max_len);
        break;
      default:
        text = RandomString(&rng, alphabet, 0,
                            rng.Bernoulli(0.5) ? 1 : max_len + 8);
        break;
    }
    queries.push_back({std::move(text), k});
  }

  const ExecutionStrategy strategies[] = {
      ExecutionStrategy::kSerial, ExecutionStrategy::kThreadPerQuery,
      ExecutionStrategy::kFixedPool, ExecutionStrategy::kAdaptive,
      ExecutionStrategy::kSharded};

  for (const auto& engine : engines) {
    ExecutionOptions serial;
    serial.strategy = ExecutionStrategy::kSerial;
    const SearchResults expected = engine->SearchBatch(queries, serial);
    ASSERT_EQ(expected.size(), queries.size());

    for (const ExecutionStrategy strategy : strategies) {
      ExecutionOptions exec;
      exec.strategy = strategy;
      exec.num_threads = 1 + rng.Uniform(4);
      // Tiny shards + narrow buckets maximize (shard × group) cells, the
      // hardest merge the sharded driver faces.
      exec.shard_size = 1 + rng.Uniform(64);
      exec.length_bucket_width = 1 + rng.Uniform(8);
      const SearchResults got = engine->SearchBatch(queries, exec);
      ASSERT_EQ(got, expected)
          << "engine " << engine->name() << " strategy "
          << static_cast<int>(strategy) << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossStrategyDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace sss
