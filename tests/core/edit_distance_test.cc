#include "core/edit_distance.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::RandomString;
using sss::testing::ReferenceEditDistance;

// ---------------------------------------------------------------------------
// Known values
// ---------------------------------------------------------------------------

TEST(EditDistanceTest, PaperWorkedExample) {
  // Figure 1 of the paper: ed("AGGCGT", "AGAGT") = 2.
  EXPECT_EQ(EditDistanceFullMatrix("AGGCGT", "AGAGT"), 2);
  EXPECT_EQ(EditDistanceTwoRow("AGGCGT", "AGAGT"), 2);
}

TEST(EditDistanceTest, ClassicExamples) {
  EXPECT_EQ(EditDistanceFullMatrix("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistanceFullMatrix("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistanceFullMatrix("Berlin", "Bern"), 2);
  EXPECT_EQ(EditDistanceFullMatrix("", ""), 0);
  EXPECT_EQ(EditDistanceFullMatrix("abc", ""), 3);
  EXPECT_EQ(EditDistanceFullMatrix("", "abc"), 3);
  EXPECT_EQ(EditDistanceFullMatrix("same", "same"), 0);
  EXPECT_EQ(EditDistanceFullMatrix("a", "b"), 1);
}

TEST(EditDistanceTest, BoundedReportsExactValueWithinThreshold) {
  EditDistanceWorkspace ws;
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3, &ws), 3);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 5, &ws), 3);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 2, &ws), 0);
}

TEST(EditDistanceTest, BoundedExceedsThresholdMeansGreater) {
  EditDistanceWorkspace ws;
  EXPECT_GT(BoundedEditDistance("kitten", "sitting", 2, &ws), 2);
  EXPECT_GT(BoundedEditDistance("aaaa", "bbbb", 3, &ws), 3);
  EXPECT_GT(BoundedEditDistance("short", "muchlongerstring", 4, &ws), 4);
}

TEST(EditDistanceTest, BoundedZeroThresholdIsEquality) {
  EditDistanceWorkspace ws;
  EXPECT_EQ(BoundedEditDistance("x", "x", 0, &ws), 0);
  EXPECT_GT(BoundedEditDistance("x", "y", 0, &ws), 0);
}

TEST(EditDistanceTest, MyersMatchesOnKnownValues) {
  EditDistanceWorkspace ws;
  EXPECT_EQ(MyersEditDistance64("AGGCGT", "AGAGT", &ws), 2);
  EXPECT_EQ(MyersEditDistance64("kitten", "sitting", &ws), 3);
  EXPECT_EQ(MyersEditDistance64("", "abc", &ws), 3);
  EXPECT_EQ(MyersEditDistance64("abc", "", &ws), 3);
}

TEST(EditDistanceTest, MyersHandles64CharPattern) {
  EditDistanceWorkspace ws;
  const std::string x(64, 'a');
  std::string y = x;
  y[10] = 'b';
  y[50] = 'c';
  EXPECT_EQ(MyersEditDistance64(x, y, &ws), 2);
}

TEST(EditDistanceTest, BlockedMyersCrossesWordBoundaries) {
  EditDistanceWorkspace ws;
  for (size_t len : {63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    const std::string x(len, 'a');
    std::string y = x;
    y[len / 2] = 'b';
    EXPECT_EQ(MyersEditDistanceBlocked(x, y, &ws), 1) << "len " << len;
    EXPECT_EQ(MyersEditDistanceBlocked(x, x, &ws), 0) << "len " << len;
  }
}

// ---------------------------------------------------------------------------
// Cross-kernel equivalence (parameterized random sweeps)
// ---------------------------------------------------------------------------

struct SweepConfig {
  const char* label;
  const char* alphabet;
  size_t min_len;
  size_t max_len;
  int trials;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const SweepConfig& cfg, std::ostream* os) { *os << cfg.label; }

class KernelEquivalenceTest : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(KernelEquivalenceTest, AllKernelsAgreeWithReference) {
  const SweepConfig& cfg = GetParam();
  Xoshiro256 rng(0xEDu);
  EditDistanceWorkspace ws;
  for (int t = 0; t < cfg.trials; ++t) {
    const std::string x =
        RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
    const std::string y =
        RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
    const int expected = ReferenceEditDistance(x, y);

    ASSERT_EQ(EditDistanceFullMatrix(x, y), expected)
        << "FullMatrix x='" << x << "' y='" << y << "'";
    ASSERT_EQ(EditDistanceTwoRow(x, y), expected)
        << "TwoRow x='" << x << "' y='" << y << "'";
    if (x.size() <= 64) {
      ASSERT_EQ(MyersEditDistance64(x, y, &ws), expected)
          << "Myers64 x='" << x << "' y='" << y << "'";
    }
    ASSERT_EQ(MyersEditDistanceBlocked(x, y, &ws), expected)
        << "MyersBlocked x='" << x << "' y='" << y << "'";
  }
}

TEST_P(KernelEquivalenceTest, BoundedKernelsAgreeWithReference) {
  const SweepConfig& cfg = GetParam();
  Xoshiro256 rng(0xB0u);
  EditDistanceWorkspace ws;
  for (int t = 0; t < cfg.trials; ++t) {
    const std::string x =
        RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
    const std::string y =
        RandomString(&rng, cfg.alphabet, cfg.min_len, cfg.max_len);
    const int expected = ReferenceEditDistance(x, y);
    for (int k : {0, 1, 2, 3, 4, 8, 16}) {
      const int banded = BoundedEditDistance(x, y, k, &ws);
      const int myers = BoundedMyers(x, y, k, &ws);
      if (expected <= k) {
        ASSERT_EQ(banded, expected)
            << "banded k=" << k << " x='" << x << "' y='" << y << "'";
        ASSERT_EQ(myers, expected)
            << "myers k=" << k << " x='" << x << "' y='" << y << "'";
      } else {
        ASSERT_GT(banded, k)
            << "banded k=" << k << " x='" << x << "' y='" << y << "'";
        ASSERT_GT(myers, k)
            << "myers k=" << k << " x='" << x << "' y='" << y << "'";
      }
      ASSERT_EQ(WithinDistance(x, y, k, &ws), expected <= k)
          << "WithinDistance k=" << k << " x='" << x << "' y='" << y << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, KernelEquivalenceTest,
    ::testing::Values(
        SweepConfig{"tiny_binary", "ab", 0, 6, 400},
        SweepConfig{"short_dna", "ACGNT", 1, 20, 300},
        SweepConfig{"city_like", "abcdefghijklmnopqrstuvwxyz -", 2, 30, 300},
        SweepConfig{"read_like", "ACGNT", 80, 110, 60},
        SweepConfig{"long_mixed", "abcdef", 60, 140, 60},
        SweepConfig{"skewed_lengths", "xyz", 0, 50, 200}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// Metric properties
// ---------------------------------------------------------------------------

TEST(EditDistancePropertyTest, Symmetry) {
  Xoshiro256 rng(0x51);
  for (int t = 0; t < 300; ++t) {
    const std::string x = RandomString(&rng, "abcd", 0, 25);
    const std::string y = RandomString(&rng, "abcd", 0, 25);
    EXPECT_EQ(EditDistanceTwoRow(x, y), EditDistanceTwoRow(y, x));
  }
}

TEST(EditDistancePropertyTest, IdentityOfIndiscernibles) {
  Xoshiro256 rng(0x52);
  for (int t = 0; t < 300; ++t) {
    const std::string x = RandomString(&rng, "abcd", 0, 25);
    EXPECT_EQ(EditDistanceTwoRow(x, x), 0);
    const std::string y = RandomString(&rng, "abcd", 0, 25);
    if (x != y) {
      EXPECT_GT(EditDistanceTwoRow(x, y), 0);
    }
  }
}

TEST(EditDistancePropertyTest, TriangleInequality) {
  Xoshiro256 rng(0x53);
  for (int t = 0; t < 200; ++t) {
    const std::string x = RandomString(&rng, "abc", 0, 15);
    const std::string y = RandomString(&rng, "abc", 0, 15);
    const std::string z = RandomString(&rng, "abc", 0, 15);
    EXPECT_LE(EditDistanceTwoRow(x, z),
              EditDistanceTwoRow(x, y) + EditDistanceTwoRow(y, z))
        << "x='" << x << "' y='" << y << "' z='" << z << "'";
  }
}

TEST(EditDistancePropertyTest, BoundedByLengthDifferenceAndMaxLength) {
  Xoshiro256 rng(0x54);
  for (int t = 0; t < 300; ++t) {
    const std::string x = RandomString(&rng, "abcdef", 0, 30);
    const std::string y = RandomString(&rng, "abcdef", 0, 30);
    const int d = EditDistanceTwoRow(x, y);
    const int len_diff =
        static_cast<int>(x.size() > y.size() ? x.size() - y.size()
                                             : y.size() - x.size());
    EXPECT_GE(d, len_diff);
    EXPECT_LE(d, static_cast<int>(std::max(x.size(), y.size())));
  }
}

TEST(EditDistancePropertyTest, SingleEditMovesDistanceByAtMostOne) {
  Xoshiro256 rng(0x55);
  for (int t = 0; t < 200; ++t) {
    const std::string x = RandomString(&rng, "abcd", 1, 20);
    std::string y = x;
    y[rng.Uniform(y.size())] = 'z';  // one replacement
    EXPECT_LE(EditDistanceTwoRow(x, y), 1);
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse
// ---------------------------------------------------------------------------

TEST(EditDistanceTest, WorkspaceReuseAcrossMixedCalls) {
  // Interleave kernels and sizes against one workspace; stale state must
  // never leak between calls.
  EditDistanceWorkspace ws;
  Xoshiro256 rng(0x56);
  for (int t = 0; t < 200; ++t) {
    const std::string x = RandomString(&rng, "ACGT", 0, 130);
    const std::string y = RandomString(&rng, "ACGT", 0, 130);
    const int expected = ReferenceEditDistance(x, y);
    const int k = static_cast<int>(rng.Uniform(20));
    const int b = BoundedEditDistance(x, y, k, &ws);
    const int m = BoundedMyers(x, y, k, &ws);
    if (expected <= k) {
      ASSERT_EQ(b, expected);
      ASSERT_EQ(m, expected);
    } else {
      ASSERT_GT(b, k);
      ASSERT_GT(m, k);
    }
  }
}

TEST(EditDistanceTest, ConvenienceOverloadMatches) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 4), 3);
  EXPECT_GT(BoundedEditDistance("kitten", "sitting", 1), 1);
}

}  // namespace
}  // namespace sss
