#include "core/partition_index.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

TEST(PieceBoundsTest, EvenAndUnevenSplits) {
  EXPECT_EQ(PartitionIndexSearcher::PieceBounds(12, 4),
            (std::vector<size_t>{0, 3, 6, 9, 12}));
  EXPECT_EQ(PartitionIndexSearcher::PieceBounds(10, 4),
            (std::vector<size_t>{0, 3, 6, 8, 10}));
  EXPECT_EQ(PartitionIndexSearcher::PieceBounds(2, 4),
            (std::vector<size_t>{0, 1, 2, 2, 2}));
  EXPECT_EQ(PartitionIndexSearcher::PieceBounds(0, 2),
            (std::vector<size_t>{0, 0, 0}));
  EXPECT_EQ(PartitionIndexSearcher::PieceBounds(5, 1),
            (std::vector<size_t>{0, 5}));
}

TEST(PartitionIndexTest, FindsExactAndApproximate) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("Magdeburg");
  d.Add("Hamburg");
  d.Add("Marburg");
  PartitionIndexSearcher index(d, {/*max_k=*/3});
  EXPECT_EQ(index.Search({"Magdeburg", 0}), (MatchList{0}));
  EXPECT_EQ(index.Search({"Maqdeburg", 1}), (MatchList{0}));
  EXPECT_EQ(index.Search({"Magdeburg", 3}), (MatchList{0, 2}));
  EXPECT_TRUE(index.Search({"Leipzig", 2}).empty());
  EXPECT_EQ(index.name(), "partition_index");
}

TEST(PartitionIndexTest, ThresholdAboveBudgetFallsBack) {
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("abcdef");
  d.Add("uvwxyz");
  PartitionIndexSearcher index(d, {/*max_k=*/1});
  // k=4 exceeds max_k=1; the fallback must still answer correctly.
  EXPECT_EQ(index.Search({"abxxxf", 4}), (MatchList{0}));
}

TEST(PartitionIndexTest, ShortStringsAreNeverLost) {
  // Strings shorter than max_k+1 have empty pieces; the pigeonhole probe
  // cannot see them, so they are kept as always-verified candidates.
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("ab");    // shorter than max_k+1 = 4
  d.Add("a");
  d.Add("abcdefgh");
  PartitionIndexSearcher index(d, {/*max_k=*/3});
  EXPECT_EQ(index.Search({"ab", 0}), (MatchList{0}));
  EXPECT_EQ(index.Search({"ax", 1}), (MatchList{0, 1}));  // ed(ax,a)=1 too
  EXPECT_EQ(index.Search({"abc", 2}), (MatchList{0, 1}));
}

TEST(PartitionIndexTest, EmptyDatasetAndQuery) {
  Dataset empty("e", AlphabetKind::kGeneric);
  PartitionIndexSearcher index(empty, {});
  EXPECT_TRUE(index.Search({"x", 1}).empty());

  Dataset d("d", AlphabetKind::kGeneric);
  d.Add("ab");
  PartitionIndexSearcher index2(d, {/*max_k=*/2});
  EXPECT_EQ(index2.Search({"", 2}), (MatchList{0}));
}

struct PartitionSweep {
  const char* label;
  const char* alphabet;
  int max_k;
  size_t min_len;
  size_t max_len;
  std::vector<int> ks;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const PartitionSweep& cfg, std::ostream* os) {
  *os << cfg.label;
}

class PartitionIndexEquivalenceTest
    : public ::testing::TestWithParam<PartitionSweep> {};

TEST_P(PartitionIndexEquivalenceTest, MatchesBruteForce) {
  const PartitionSweep& cfg = GetParam();
  Xoshiro256 rng(0x9A27);
  Dataset d =
      RandomDataset(&rng, cfg.alphabet, 200, cfg.min_len, cfg.max_len);
  PartitionIndexSearcher index(d, {cfg.max_k});
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
      ASSERT_EQ(index.Search(q), BruteForceSearch(d, q))
          << cfg.label << " q='" << q.text << "' k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PartitionIndexEquivalenceTest,
    ::testing::Values(
        PartitionSweep{"city_k3", "abcdefghij -", 3, 2, 30, {0, 1, 2, 3}},
        PartitionSweep{"dna_k16", "ACGNT", 16, 40, 60, {0, 4, 8, 16}},
        PartitionSweep{"short_strings", "abc", 3, 0, 6, {0, 1, 2, 3}},
        PartitionSweep{"beyond_budget", "abcd", 2, 2, 20, {0, 1, 2, 3, 4}}),
    [](const ::testing::TestParamInfo<PartitionSweep>& info) {
      return info.param.label;
    });

TEST(PartitionIndexTest, EditedInsertionsAndDeletionsShiftPieces) {
  // Directed test for the ±k drift handling: insertions before a piece.
  Dataset d("x", AlphabetKind::kGeneric);
  d.Add("abcdefghijkl");  // 12 chars, max_k=2 → pieces of 4
  PartitionIndexSearcher index(d, {/*max_k=*/2});
  // Two insertions at the front shift every piece right by 2.
  EXPECT_EQ(index.Search({"xyabcdefghijkl", 2}), (MatchList{0}));
  // Two deletions at the front shift left by 2.
  EXPECT_EQ(index.Search({"cdefghijkl", 2}), (MatchList{0}));
}

TEST(PartitionIndexTest, ReportsMemory) {
  Xoshiro256 rng(0x9A28);
  Dataset d = RandomDataset(&rng, "abcdef", 300, 8, 20);
  PartitionIndexSearcher index(d, {/*max_k=*/3});
  EXPECT_GT(index.memory_bytes(), 0u);
}

}  // namespace
}  // namespace sss
