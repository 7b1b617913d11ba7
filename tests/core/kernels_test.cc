#include "core/kernels.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;
using sss::testing::ReferenceEditDistance;

TEST(DiagonalAbortTest, ExactWhenWithinThreshold) {
  Xoshiro256 rng(0xDA);
  for (int t = 0; t < 300; ++t) {
    const std::string x = RandomString(&rng, "abcde", 0, 20);
    const std::string y = RandomString(&rng, "abcde", 0, 20);
    const int expected = ReferenceEditDistance(x, y);
    for (int k : {0, 1, 2, 3, 6}) {
      const int got = internal::EditDistanceDiagonalAbort(x, y, k);
      if (expected <= k) {
        ASSERT_EQ(got, expected) << "x='" << x << "' y='" << y << "'";
      } else {
        ASSERT_GT(got, k) << "x='" << x << "' y='" << y << "'";
      }
    }
  }
}

TEST(DiagonalAbortTest, PaperExampleCondition6Fires) {
  // §3.2's worked example (eq. 8): strings of length 6 and 5, k = 1 — the
  // abort must trigger and report "greater than k".
  EXPECT_GT(internal::EditDistanceDiagonalAbort("AGGCGT", "AGAGT", 1), 1);
  // At k = 2 the true distance (2) is reported.
  EXPECT_EQ(internal::EditDistanceDiagonalAbort("AGGCGT", "AGAGT", 2), 2);
}

TEST(SimpleTypesKernelTest, ExactWhenWithinThreshold) {
  Xoshiro256 rng(0x547);
  EditDistanceWorkspace ws;
  for (int t = 0; t < 300; ++t) {
    const std::string x = RandomString(&rng, "ACGNT", 0, 30);
    const std::string y = RandomString(&rng, "ACGNT", 0, 30);
    const int expected = ReferenceEditDistance(x, y);
    for (int k : {0, 1, 3, 8, 16}) {
      const int got = internal::EditDistanceSimpleTypes(x, y, k, &ws);
      if (expected <= k) {
        ASSERT_EQ(got, expected) << "x='" << x << "' y='" << y << "'";
      } else {
        ASSERT_GT(got, k) << "x='" << x << "' y='" << y << "'";
      }
    }
  }
}

TEST(SimpleTypesKernelTest, AgreesWithDiagonalAbortKernel) {
  Xoshiro256 rng(0x548);
  EditDistanceWorkspace ws;
  for (int t = 0; t < 200; ++t) {
    const std::string x = RandomString(&rng, "ab", 0, 15);
    const std::string y = RandomString(&rng, "ab", 0, 15);
    for (int k : {0, 2, 5}) {
      const int a = internal::EditDistanceDiagonalAbort(x, y, k);
      const int b = internal::EditDistanceSimpleTypes(x, y, k, &ws);
      ASSERT_EQ(a <= k, b <= k) << "x='" << x << "' y='" << y << "' k=" << k;
      if (a <= k) {
        ASSERT_EQ(a, b);
      }
    }
  }
}

TEST(LadderTest, ToStringLabelsMatchPaperRows) {
  EXPECT_EQ(ToString(LadderStep::kBase), "1) Base implementation");
  EXPECT_EQ(ToString(LadderStep::kSimpleTypes),
            "4) Simple data types and program methods");
}

// The paper's correctness gate: every ladder step must return exactly the
// step-1 (reference) results.
class LadderEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(LadderEquivalenceTest, AllStepsReturnReferenceResults) {
  const auto [alphabet, max_k] = GetParam();
  Xoshiro256 rng(0x1AD);
  Dataset d = RandomDataset(&rng, alphabet, 120, 1, 24);
  EditDistanceWorkspace ws;
  for (int t = 0; t < 25; ++t) {
    Query q{RandomString(&rng, alphabet, 1, 24),
            static_cast<int>(rng.Uniform(max_k + 1))};
    const MatchList expected = BruteForceSearch(d, q);
    for (LadderStep step :
         {LadderStep::kBase, LadderStep::kFastEditDistance,
          LadderStep::kReferences, LadderStep::kSimpleTypes}) {
      ASSERT_EQ(RunLadderKernel(d, q, step, &ws), expected)
          << "step " << ToString(step) << " q='" << q.text
          << "' k=" << q.max_distance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LadderEquivalenceTest,
    ::testing::Values(std::make_tuple(std::string("abcdefgh"), 3),
                      std::make_tuple(std::string("ACGNT"), 8),
                      std::make_tuple(std::string("ab"), 4)));

TEST(LadderTest, MatchesArriveInAscendingIdOrder) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("abc");
  d.Add("zzz");
  d.Add("abd");
  d.Add("abc");
  EditDistanceWorkspace ws;
  const Query q{"abc", 1};
  for (LadderStep step :
       {LadderStep::kBase, LadderStep::kFastEditDistance,
        LadderStep::kReferences, LadderStep::kSimpleTypes}) {
    const MatchList m = RunLadderKernel(d, q, step, &ws);
    ASSERT_EQ(m, (MatchList{0, 2, 3})) << ToString(step);
  }
}

TEST(LadderTest, EmptyDatasetYieldsNoMatches) {
  Dataset d("empty", AlphabetKind::kGeneric);
  EditDistanceWorkspace ws;
  const Query q{"anything", 3};
  for (LadderStep step :
       {LadderStep::kBase, LadderStep::kFastEditDistance,
        LadderStep::kReferences, LadderStep::kSimpleTypes}) {
    EXPECT_TRUE(RunLadderKernel(d, q, step, &ws).empty());
  }
}

TEST(LadderTest, EmptyQueryMatchesShortStrings) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("a");
  d.Add("ab");
  d.Add("abc");
  EditDistanceWorkspace ws;
  const Query q{"", 2};
  for (LadderStep step :
       {LadderStep::kBase, LadderStep::kFastEditDistance,
        LadderStep::kReferences, LadderStep::kSimpleTypes}) {
    EXPECT_EQ(RunLadderKernel(d, q, step, &ws), (MatchList{0, 1}))
        << ToString(step);
  }
}

}  // namespace
}  // namespace sss
