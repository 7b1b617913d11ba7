#include "core/compressed_trie.h"

#include <gtest/gtest.h>

#include "core/trie.h"
#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

TEST(CompressedTrieTest, PaperFigureFourNodeCount) {
  // Fig. 4: "Berlin", "Bern", "Ulm" compress to root + "Ber" + "lin" + "n"
  // + "Ulm" = 5 nodes (the paper counts ~half of the 11 uncompressed ones).
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Berlin");
  d.Add("Bern");
  d.Add("Ulm");
  CompressedTrieSearcher radix(d);
  EXPECT_EQ(radix.Stats().num_nodes, 5u);

  TrieSearcher basic(d);
  EXPECT_LT(radix.Stats().num_nodes, basic.Stats().num_nodes / 2 + 1);
}

TEST(CompressedTrieTest, FindsExactAndApproximate) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Berlin");
  d.Add("Bern");
  d.Add("Ulm");
  CompressedTrieSearcher radix(d);
  EXPECT_EQ(radix.Search({"Berlin", 0}), (MatchList{0}));
  EXPECT_EQ(radix.Search({"Berlin", 3}), (MatchList{0, 1}));
  EXPECT_EQ(radix.Search({"Alm", 1}), (MatchList{2}));
  EXPECT_TRUE(radix.Search({"Hamburg", 1}).empty());
}

TEST(CompressedTrieTest, HandlesDuplicates) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("dup");
  d.Add("dup");
  d.Add("du");
  CompressedTrieSearcher radix(d);
  EXPECT_EQ(radix.Search({"dup", 0}), (MatchList{0, 1}));
  EXPECT_EQ(radix.Search({"dup", 1}), (MatchList{0, 1, 2}));
}

TEST(CompressedTrieTest, SplitsEdgesCorrectly) {
  // Insert order forces splits: long string first, then prefixes.
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("abcdef");
  d.Add("abc");
  d.Add("abq");
  d.Add("ab");
  CompressedTrieSearcher radix(d);
  EXPECT_EQ(radix.Search({"abcdef", 0}), (MatchList{0}));
  EXPECT_EQ(radix.Search({"abc", 0}), (MatchList{1}));
  EXPECT_EQ(radix.Search({"abq", 0}), (MatchList{2}));
  EXPECT_EQ(radix.Search({"ab", 0}), (MatchList{3}));
  EXPECT_EQ(radix.Search({"ab", 1}), (MatchList{1, 2, 3}));
}

TEST(CompressedTrieTest, EmptyStringAndEmptyQuery) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("");
  d.Add("a");
  d.Add("ab");
  CompressedTrieSearcher radix(d);
  EXPECT_EQ(radix.Search({"", 0}), (MatchList{0}));
  EXPECT_EQ(radix.Search({"", 1}), (MatchList{0, 1}));
}

TEST(CompressedTrieTest, EmptyDataset) {
  Dataset d("empty", AlphabetKind::kGeneric);
  CompressedTrieSearcher radix(d);
  EXPECT_TRUE(radix.Search({"x", 3}).empty());
}

struct RadixSweep {
  const char* label;
  const char* alphabet;
  size_t n;
  size_t min_len;
  size_t max_len;
  std::vector<int> ks;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const RadixSweep& cfg, std::ostream* os) { *os << cfg.label; }

class CompressedTrieEquivalenceTest
    : public ::testing::TestWithParam<RadixSweep> {};

TEST_P(CompressedTrieEquivalenceTest, MatchesBruteForceAndBasicTrie) {
  const RadixSweep& cfg = GetParam();
  Xoshiro256 rng(0xC0DE);
  Dataset d = RandomDataset(&rng, cfg.alphabet, cfg.n, cfg.min_len,
                            cfg.max_len);
  CompressedTrieSearcher radix(d);
  TrieSearcher basic(d);
  for (int t = 0; t < 40; ++t) {
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
      ASSERT_EQ(radix.Search(q), expected)
          << cfg.label << " q='" << q.text << "' k=" << k;
      ASSERT_EQ(basic.Search(q), expected)
          << cfg.label << " (basic) q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CompressedTrieEquivalenceTest,
    ::testing::Values(
        RadixSweep{"city_like", "abcdefghij -", 200, 2, 30, {0, 1, 2, 3}},
        RadixSweep{"dna_like", "ACGNT", 150, 40, 60, {0, 4, 8, 16}},
        RadixSweep{"prefix_heavy", "ab", 250, 0, 14, {0, 1, 2}},
        RadixSweep{"single_char", "a", 100, 0, 20, {0, 1, 3}}),
    [](const ::testing::TestParamInfo<RadixSweep>& info) {
      return info.param.label;
    });

class CompressedPaperRuleTest : public ::testing::TestWithParam<RadixSweep> {
};

TEST_P(CompressedPaperRuleTest, PaperRuleMatchesBruteForce) {
  const RadixSweep& cfg = GetParam();
  Xoshiro256 rng(0x9A9F);
  Dataset d = RandomDataset(&rng, cfg.alphabet, cfg.n, cfg.min_len,
                            cfg.max_len);
  CompressedTrieSearcher paper(d, TriePruning::kPaperRule);
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
      ASSERT_EQ(paper.Search(q), BruteForceSearch(d, q))
          << cfg.label << " (paper rule) q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CompressedPaperRuleTest,
    ::testing::Values(
        RadixSweep{"city_like", "abcdefghij -", 150, 2, 30, {0, 1, 2, 3}},
        RadixSweep{"dna_like", "ACGNT", 100, 40, 60, {0, 4, 8, 16}},
        RadixSweep{"length_spread", "abc", 150, 0, 40, {0, 1, 2, 3}}),
    [](const ::testing::TestParamInfo<RadixSweep>& info) {
      return info.param.label;
    });

// PETER-style frequency bounds are a pure filter: results must be
// identical with them on, under both pruning rules.
class FrequencyBoundsTest : public ::testing::TestWithParam<RadixSweep> {};

TEST_P(FrequencyBoundsTest, BoundsNeverChangeResults) {
  const RadixSweep& cfg = GetParam();
  Xoshiro256 rng(0x9AA0);
  Dataset d = RandomDataset(&rng, cfg.alphabet, cfg.n, cfg.min_len,
                            cfg.max_len);
  CompressedTrieSearcher plain(d, TriePruning::kBandedRows, false);
  CompressedTrieSearcher banded_fb(d, TriePruning::kBandedRows, true);
  CompressedTrieSearcher paper_fb(d, TriePruning::kPaperRule, true);
  for (int t = 0; t < 25; ++t) {
    for (int k : cfg.ks) {
      std::string text;
      if (t % 2 == 0) {
        text = std::string(d.View(rng.Uniform(d.size())));
        if (!text.empty() && k > 0) text[rng.Uniform(text.size())] = 'z';
      } else {
        text = RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
      }
      const Query q{text, k};
      const MatchList expected = plain.Search(q);
      ASSERT_EQ(banded_fb.Search(q), expected)
          << cfg.label << " (banded+fb) q='" << q.text << "' k=" << k;
      ASSERT_EQ(paper_fb.Search(q), expected)
          << cfg.label << " (paper+fb) q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, FrequencyBoundsTest,
    ::testing::Values(
        RadixSweep{"dna_like", "ACGNT", 150, 40, 60, {0, 4, 8, 16}},
        RadixSweep{"vowel_rich", "aeioubcd", 200, 2, 25, {0, 1, 2, 3}},
        RadixSweep{"no_tracked_symbols", "xyz", 150, 1, 15, {0, 1, 2}}),
    [](const ::testing::TestParamInfo<RadixSweep>& info) {
      return info.param.label;
    });

TEST(FrequencyBoundsTest, DirectedDnaCase) {
  Dataset d("dna", AlphabetKind::kDna);
  d.Add("AAAAAAAAAA");  // 0
  d.Add("TTTTTTTTTT");  // 1
  d.Add("AAAAATTTTT");  // 2
  CompressedTrieSearcher trie(d, TriePruning::kBandedRows, true);
  EXPECT_EQ(trie.Search({"AAAAAAAAAA", 2}), (MatchList{0}));
  EXPECT_EQ(trie.Search({"AAAAATTTTT", 0}), (MatchList{2}));
  EXPECT_EQ(trie.Search({"AAAAATTTTA", 1}), (MatchList{2}));
}

TEST(CompressedTrieTest, CompressionReducesNodesOnRealisticData) {
  Xoshiro256 rng(0xC0DF);
  Dataset d = RandomDataset(&rng, "abcd", 2000, 4, 20);
  TrieSearcher basic(d);
  CompressedTrieSearcher radix(d);
  EXPECT_LT(radix.Stats().num_nodes, basic.Stats().num_nodes)
      << "compression must reduce node count";
}

TEST(CompressedTrieTest, SearchIsThreadSafe) {
  Xoshiro256 rng(0xC0E0);
  Dataset d = RandomDataset(&rng, "abcdef", 300, 2, 15);
  CompressedTrieSearcher radix(d);
  QuerySet queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        {RandomString(&rng, "abcdef", 2, 15), static_cast<int>(i % 4)});
  }
  SearchResults serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = radix.Search(queries[i]);
  }
  const SearchResults parallel = radix.SearchBatch(
      queries, {ExecutionStrategy::kFixedPool, /*num_threads=*/8});
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace sss
