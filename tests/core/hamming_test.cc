#include "core/hamming.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::RandomDataset;
using sss::testing::RandomString;

// Byte-by-byte reference, independent of the word-parallel kernel.
int ReferenceHamming(std::string_view x, std::string_view y) {
  int d = 0;
  for (size_t i = 0; i < x.size(); ++i) d += x[i] != y[i] ? 1 : 0;
  return d;
}

MatchList BruteForceHamming(const Dataset& d, const Query& q) {
  MatchList out;
  for (uint32_t id = 0; id < d.size(); ++id) {
    if (d.Length(id) != q.text.size()) continue;
    if (ReferenceHamming(q.text, d.View(id)) <= q.max_distance) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(HammingDistanceTest, KnownValues) {
  EXPECT_EQ(HammingDistance("", ""), 0);
  EXPECT_EQ(HammingDistance("a", "a"), 0);
  EXPECT_EQ(HammingDistance("a", "b"), 1);
  EXPECT_EQ(HammingDistance("karolin", "kathrin"), 3);
  EXPECT_EQ(HammingDistance("GGGCCGTTGGT", "GGGACGTTGGT"), 1);
}

TEST(HammingDistanceTest, WordParallelMatchesReference) {
  Xoshiro256 rng(0x4A11);
  for (int t = 0; t < 500; ++t) {
    // Lengths straddling the 8-byte word boundary matter most.
    const size_t len = rng.Uniform(40);
    std::string x = RandomString(&rng, "abcd", len, len);
    std::string y = RandomString(&rng, "abcd", len, len);
    ASSERT_EQ(HammingDistance(x, y), ReferenceHamming(x, y))
        << "x='" << x << "' y='" << y << "'";
  }
}

TEST(BoundedHammingTest, ExactWithinThresholdGreaterBeyond) {
  Xoshiro256 rng(0x4A12);
  for (int t = 0; t < 300; ++t) {
    const size_t len = 1 + rng.Uniform(30);
    const std::string x = RandomString(&rng, "ab", len, len);
    const std::string y = RandomString(&rng, "ab", len, len);
    const int expected = ReferenceHamming(x, y);
    for (int k : {0, 1, 3, 8}) {
      const int got = BoundedHamming(x, y, k);
      if (expected <= k) {
        ASSERT_EQ(got, expected);
      } else {
        ASSERT_GT(got, k);
      }
    }
  }
}

TEST(BoundedHammingTest, DifferentLengthsNeverMatch) {
  EXPECT_GT(BoundedHamming("abc", "abcd", 10), 10);
  EXPECT_GT(BoundedHamming("", "a", 5), 5);
  EXPECT_FALSE(WithinHamming("ab", "abc", 99));
}

TEST(HammingScanTest, FindsMatches) {
  Dataset d("x", AlphabetKind::kDna);
  d.Add("ACGT");
  d.Add("ACGA");   // Hamming 1 from ACGT
  d.Add("AGCT");   // Hamming 2
  d.Add("ACG");    // wrong length
  HammingScanSearcher scan(d);
  EXPECT_EQ(scan.Search({"ACGT", 0}), (MatchList{0}));
  EXPECT_EQ(scan.Search({"ACGT", 1}), (MatchList{0, 1}));
  EXPECT_EQ(scan.Search({"ACGT", 2}), (MatchList{0, 1, 2}));
  EXPECT_EQ(scan.name(), "hamming_scan");
}

TEST(HammingTrieTest, FindsMatches) {
  Dataset d("x", AlphabetKind::kDna);
  d.Add("ACGT");
  d.Add("ACGA");
  d.Add("AGCT");
  d.Add("ACG");
  HammingTrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"ACGT", 0}), (MatchList{0}));
  EXPECT_EQ(trie.Search({"ACGT", 1}), (MatchList{0, 1}));
  EXPECT_EQ(trie.Search({"ACGT", 2}), (MatchList{0, 1, 2}));
  EXPECT_EQ(trie.Search({"ACG", 0}), (MatchList{3}));
  EXPECT_TRUE(trie.Search({"AC", 3}).empty());
}

TEST(HammingTrieTest, EmptyQueryAndEmptyStrings) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("");
  d.Add("a");
  HammingTrieSearcher trie(d);
  EXPECT_EQ(trie.Search({"", 0}), (MatchList{0}));
  EXPECT_EQ(trie.Search({"", 5}), (MatchList{0}));  // "a" has length 1
}

struct HammingSweep {
  const char* label;
  const char* alphabet;
  size_t min_len;
  size_t max_len;
  std::vector<int> ks;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const HammingSweep& cfg, std::ostream* os) { *os << cfg.label; }

class HammingEquivalenceTest
    : public ::testing::TestWithParam<HammingSweep> {};

TEST_P(HammingEquivalenceTest, ScanAndTrieMatchBruteForce) {
  const HammingSweep& cfg = GetParam();
  Xoshiro256 rng(0x4A13);
  Dataset d =
      RandomDataset(&rng, cfg.alphabet, 200, cfg.min_len, cfg.max_len);
  HammingScanSearcher scan(d);
  HammingTrieSearcher trie(d);
  for (int t = 0; t < 40; ++t) {
    for (int k : cfg.ks) {
      std::string text;
      if (t % 2 == 0) {
        text = std::string(d.View(rng.Uniform(d.size())));
        for (int e = 0; e < k && !text.empty(); ++e) {
          text[rng.Uniform(text.size())] =
              cfg.alphabet[rng.Uniform(std::string_view(cfg.alphabet)
                                           .size())];
        }
      } else {
        text = RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
      }
      const Query q{text, k};
      const MatchList expected = BruteForceHamming(d, q);
      ASSERT_EQ(scan.Search(q), expected)
          << cfg.label << " (scan) q='" << q.text << "' k=" << k;
      ASSERT_EQ(trie.Search(q), expected)
          << cfg.label << " (trie) q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, HammingEquivalenceTest,
    ::testing::Values(
        HammingSweep{"dna_like", "ACGNT", 20, 30, {0, 4, 8}},
        HammingSweep{"fixed_length", "ab", 10, 10, {0, 1, 2, 5}},
        HammingSweep{"city_like", "abcdefgh -", 2, 20, {0, 1, 2, 3}}),
    [](const ::testing::TestParamInfo<HammingSweep>& info) {
      return info.param.label;
    });

TEST(HammingTest, HammingUpperBoundsEditDistance) {
  // For equal lengths, ed(x,y) ≤ hamming(x,y): substitutions are one valid
  // edit script.
  Xoshiro256 rng(0x4A14);
  for (int t = 0; t < 200; ++t) {
    const size_t len = 1 + rng.Uniform(20);
    const std::string x = RandomString(&rng, "abc", len, len);
    const std::string y = RandomString(&rng, "abc", len, len);
    EXPECT_LE(sss::testing::ReferenceEditDistance(x, y),
              ReferenceHamming(x, y));
  }
}

}  // namespace
}  // namespace sss
