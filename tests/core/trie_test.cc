#include "core/trie.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

TEST(TrieTest, FindsExactMatch) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Berlin");
  d.Add("Bern");
  d.Add("Ulm");
  TrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"Berlin", 0}), (MatchList{0}));
  EXPECT_EQ(trie.Search({"Ulm", 0}), (MatchList{2}));
  EXPECT_TRUE(trie.Search({"Hamburg", 0}).empty());
}

TEST(TrieTest, FindsApproximateMatches) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Berlin");
  d.Add("Bern");
  d.Add("Ulm");
  TrieSearcher trie(d);
  // ed(Berlin, Bern) = 3 (paper Fig. 4 example words).
  EXPECT_EQ(trie.Search({"Berlin", 3}), (MatchList{0, 1}));
  EXPECT_EQ(trie.Search({"Berl", 1}), (MatchList{1}));  // ed(Berl,Bern)=1
  EXPECT_EQ(trie.Search({"Berl", 2}), (MatchList{0, 1}));
}

TEST(TrieTest, HandlesDuplicateStrings) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("dup");
  d.Add("other");
  d.Add("dup");
  TrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"dup", 0}), (MatchList{0, 2}));
}

TEST(TrieTest, EmptyQueryMatchesByLength) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("a");
  d.Add("ab");
  d.Add("abc");
  TrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"", 2}), (MatchList{0, 1}));
  EXPECT_TRUE(trie.Search({"", 0}).empty());
}

TEST(TrieTest, EmptyDatasetYieldsNothing) {
  Dataset d("empty", AlphabetKind::kGeneric);
  TrieSearcher trie(d);
  EXPECT_TRUE(trie.Search({"q", 5}).empty());
}

TEST(TrieTest, EmptyStringInDataset) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("");
  d.Add("a");
  TrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"", 0}), (MatchList{0}));
  EXPECT_EQ(trie.Search({"a", 1}), (MatchList{0, 1}));
}

TEST(TrieTest, StatsCountNodes) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Berlin");
  d.Add("Bern");
  d.Add("Ulm");
  TrieSearcher trie(d);
  const TrieStats stats = trie.Stats();
  // Fig. 4 (left): root + B,e,r,l,i,n + n + U,l,m = 11 nodes.
  EXPECT_EQ(stats.num_nodes, 11u);
  EXPECT_EQ(stats.num_terminal_nodes, 3u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(TrieTest, SharedPrefixesShareNodes) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("abcde");
  d.Add("abcdf");
  TrieSearcher trie(d);
  // root + a,b,c,d + e + f = 7
  EXPECT_EQ(trie.Stats().num_nodes, 7u);
}

// Randomized equivalence against brute force, across alphabets and k.
struct TrieSweep {
  const char* label;
  const char* alphabet;
  size_t n;
  size_t min_len;
  size_t max_len;
  std::vector<int> ks;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const TrieSweep& cfg, std::ostream* os) { *os << cfg.label; }

class TrieEquivalenceTest : public ::testing::TestWithParam<TrieSweep> {};

TEST_P(TrieEquivalenceTest, MatchesBruteForce) {
  const TrieSweep& cfg = GetParam();
  Xoshiro256 rng(0x791E);
  Dataset d = RandomDataset(&rng, cfg.alphabet, cfg.n, cfg.min_len,
                            cfg.max_len);
  TrieSearcher trie(d);
  for (int t = 0; t < 40; ++t) {
    for (int k : cfg.ks) {
      // Half the queries are perturbed dataset strings (guaranteed hits),
      // half are fresh random strings (mostly misses).
      std::string text;
      if (t % 2 == 0) {
        text = std::string(d.View(rng.Uniform(d.size())));
        if (!text.empty() && k > 0) text[rng.Uniform(text.size())] = 'z';
      } else {
        text = RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
      }
      const Query q{text, k};
      ASSERT_EQ(trie.Search(q), BruteForceSearch(d, q))
          << cfg.label << " q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TrieEquivalenceTest,
    ::testing::Values(
        TrieSweep{"city_like", "abcdefghij -", 200, 2, 30, {0, 1, 2, 3}},
        TrieSweep{"dna_like", "ACGNT", 150, 40, 60, {0, 4, 8, 16}},
        TrieSweep{"tiny_alphabet", "ab", 150, 0, 12, {0, 1, 2}},
        TrieSweep{"with_duplicates", "abc", 300, 1, 6, {0, 1, 2, 3}}),
    [](const ::testing::TestParamInfo<TrieSweep>& info) {
      return info.param.label;
    });

// The paper-faithful pruning rule must return exactly the same results as
// the banded rule and brute force — only the amount of work differs.
class TriePaperRuleTest : public ::testing::TestWithParam<TrieSweep> {};

TEST_P(TriePaperRuleTest, PaperRuleMatchesBruteForce) {
  const TrieSweep& cfg = GetParam();
  Xoshiro256 rng(0x9A9E);
  Dataset d = RandomDataset(&rng, cfg.alphabet, cfg.n, cfg.min_len,
                            cfg.max_len);
  TrieSearcher paper(d, TriePruning::kPaperRule);
  TrieSearcher banded(d, TriePruning::kBandedRows);
  EXPECT_EQ(paper.pruning(), TriePruning::kPaperRule);
  for (int t = 0; t < 30; ++t) {
    for (int k : cfg.ks) {
      std::string text;
      if (t % 2 == 0) {
        text = std::string(d.View(rng.Uniform(d.size())));
        if (!text.empty() && k > 0) text[rng.Uniform(text.size())] = 'z';
      } else {
        text = RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
      }
      const Query q{text, k};
      const MatchList expected = BruteForceSearch(d, q);
      ASSERT_EQ(paper.Search(q), expected)
          << cfg.label << " (paper rule) q='" << q.text << "' k=" << k;
      ASSERT_EQ(banded.Search(q), expected)
          << cfg.label << " (banded) q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TriePaperRuleTest,
    ::testing::Values(
        TrieSweep{"city_like", "abcdefghij -", 150, 2, 30, {0, 1, 2, 3}},
        TrieSweep{"dna_like", "ACGNT", 100, 40, 60, {0, 4, 8, 16}},
        TrieSweep{"length_spread", "abc", 150, 0, 40, {0, 1, 2, 3}}),
    [](const ::testing::TestParamInfo<TrieSweep>& info) {
      return info.param.label;
    });

TEST(TrieTest, SearchIsThreadSafe) {
  Xoshiro256 rng(0x7157);
  Dataset d = RandomDataset(&rng, "abcdef", 300, 2, 15);
  TrieSearcher trie(d);
  QuerySet queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        {RandomString(&rng, "abcdef", 2, 15), static_cast<int>(i % 4)});
  }
  SearchResults serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = trie.Search(queries[i]);
  }
  const SearchResults parallel = trie.SearchBatch(
      queries, {ExecutionStrategy::kFixedPool, /*num_threads=*/8});
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace sss
