#include "core/filters.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::RandomDataset;
using sss::testing::RandomString;
using sss::testing::ReferenceEditDistance;

TEST(LengthFilterTest, PassesIffWithinDelta) {
  EXPECT_TRUE(LengthFilterPasses(5, 5, 0));
  EXPECT_TRUE(LengthFilterPasses(5, 7, 2));
  EXPECT_TRUE(LengthFilterPasses(7, 5, 2));
  EXPECT_FALSE(LengthFilterPasses(5, 8, 2));
  EXPECT_FALSE(LengthFilterPasses(8, 5, 2));
  EXPECT_TRUE(LengthFilterPasses(0, 0, 0));
  EXPECT_FALSE(LengthFilterPasses(0, 1, 0));
}

TEST(FrequencyVectorFilterTest, ComputeCountsDnaSymbols) {
  Dataset d("dna", AlphabetKind::kDna);
  d.Add("AACGT");
  FrequencyVectorFilter filter(d);
  const FrequencyVector v = filter.Compute("AACGT");
  EXPECT_EQ(v[0], 2);  // A
  EXPECT_EQ(v[1], 1);  // C
  EXPECT_EQ(v[2], 1);  // G
  EXPECT_EQ(v[3], 0);  // N
  EXPECT_EQ(v[4], 1);  // T
  EXPECT_EQ(v[5], 0);  // other
}

TEST(FrequencyVectorFilterTest, ComputeCountsVowelsCaseInsensitive) {
  Dataset d("city", AlphabetKind::kGeneric);
  d.Add("x");
  FrequencyVectorFilter filter(d);
  const FrequencyVector v = filter.Compute("Aachen-Oo");
  EXPECT_EQ(v[0], 2);  // A + a
  EXPECT_EQ(v[1], 1);  // e
  EXPECT_EQ(v[3], 2);  // O + o
  EXPECT_EQ(v[5], 4);  // c, h, n, '-'
}

TEST(FrequencyVectorFilterTest, ExactMatchAlwaysPasses) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Magdeburg");
  FrequencyVectorFilter filter(d);
  EXPECT_TRUE(filter.MayMatch(filter.Compute("Magdeburg"), 0, 0));
}

TEST(FrequencyVectorFilterTest, DistantStringsArePruned) {
  Dataset d("dna", AlphabetKind::kDna);
  d.Add("AAAAAAAAAA");
  FrequencyVectorFilter filter(d);
  // Query all-T: bucket L1 distance is 20, bound = 10 > k for small k.
  EXPECT_FALSE(filter.MayMatch(filter.Compute("TTTTTTTTTT"), 0, 3));
  EXPECT_TRUE(filter.MayMatch(filter.Compute("TTTTTTTTTT"), 0, 10));
}

// Soundness property: the filter never prunes a true match.
class FrequencyFilterSoundnessTest
    : public ::testing::TestWithParam<std::pair<std::string, AlphabetKind>> {
};

TEST_P(FrequencyFilterSoundnessTest, NeverPrunesTrueMatch) {
  const auto [alphabet, kind] = GetParam();
  Xoshiro256 rng(0xF1);
  Dataset d = RandomDataset(&rng, alphabet, 150, 0, 25, kind);
  FrequencyVectorFilter filter(d);
  for (int t = 0; t < 60; ++t) {
    const std::string q = RandomString(&rng, alphabet, 0, 25);
    const FrequencyVector qvec = filter.Compute(q);
    for (int k : {0, 1, 2, 3, 8}) {
      for (size_t id = 0; id < d.size(); ++id) {
        const int dist =
            ReferenceEditDistance(q, d.View(id));
        if (dist <= k) {
          ASSERT_TRUE(filter.MayMatch(qvec, id, k))
              << "pruned true match: q='" << q << "' s='" << d.View(id)
              << "' ed=" << dist << " k=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Alphabets, FrequencyFilterSoundnessTest,
    ::testing::Values(
        std::make_pair(std::string("ACGNT"), AlphabetKind::kDna),
        std::make_pair(std::string("aeioubcdfg XY"), AlphabetKind::kGeneric)),
    [](const auto& info) {
      return info.param.second == AlphabetKind::kDna ? "dna" : "generic";
    });

TEST(FrequencyVectorFilterTest, FilterIsSelectiveOnRandomData) {
  // Not a correctness requirement, but if the filter passes everything it is
  // useless; random DNA at k=1 should be heavily pruned.
  Xoshiro256 rng(0xF2);
  Dataset d = RandomDataset(&rng, "ACGT", 500, 20, 20, AlphabetKind::kDna);
  FrequencyVectorFilter filter(d);
  const std::string q = RandomString(&rng, "ACGT", 20, 20);
  const FrequencyVector qvec = filter.Compute(q);
  size_t passed = 0;
  for (size_t id = 0; id < d.size(); ++id) {
    passed += filter.MayMatch(qvec, id, 1) ? 1 : 0;
  }
  EXPECT_LT(passed, d.size() / 2);
}

TEST(QGramFilterTest, ProfileOfShortStringIsEmpty) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("ab");
  QGramFilter filter(d, 3);
  EXPECT_TRUE(filter.Profile("ab").empty());
  EXPECT_EQ(filter.Profile("abc").size(), 1u);
  EXPECT_EQ(filter.Profile("abcd").size(), 2u);
}

TEST(QGramFilterTest, ShortQueryAlwaysPasses) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("whatever");
  QGramFilter filter(d, 4);
  EXPECT_TRUE(filter.MayMatch(filter.Profile("ab"), 2, 0, 0));
}

TEST(QGramFilterTest, IdenticalStringsPass) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Magdeburg");
  QGramFilter filter(d, 2);
  EXPECT_TRUE(filter.MayMatch(filter.Profile("Magdeburg"), 9, 0, 0));
}

TEST(QGramFilterTest, DisjointStringsPrunedAtLowK) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("aaaaaaaaaa");
  QGramFilter filter(d, 2);
  EXPECT_FALSE(filter.MayMatch(filter.Profile("bbbbbbbbbb"), 10, 0, 1));
}

class QGramSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(QGramSoundnessTest, NeverPrunesTrueMatch) {
  const int q = GetParam();
  Xoshiro256 rng(0xF3 + q);
  Dataset d = RandomDataset(&rng, "abcdef", 120, 0, 30);
  QGramFilter filter(d, q);
  for (int t = 0; t < 50; ++t) {
    const std::string query = RandomString(&rng, "abcdef", 0, 30);
    const auto profile = filter.Profile(query);
    for (int k : {0, 1, 2, 4}) {
      for (size_t id = 0; id < d.size(); ++id) {
        const int dist = ReferenceEditDistance(query, d.View(id));
        if (dist <= k) {
          ASSERT_TRUE(filter.MayMatch(profile, query.size(), id, k))
              << "pruned true match: q='" << query << "' s='" << d.View(id)
              << "' ed=" << dist << " k=" << k << " qgram=" << q;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GramSizes, QGramSoundnessTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sss
