#include "core/scan.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

Dataset SmallCities() {
  Dataset d("cities", AlphabetKind::kGeneric);
  d.Add("Magdeburg");
  d.Add("Marburg");
  d.Add("Hamburg");
  d.Add("Berlin");
  d.Add("Bern");
  return d;
}

TEST(ScanTest, DefaultOptionsFindMatches) {
  Dataset d = SmallCities();
  SequentialScanSearcher scan(d, {});
  EXPECT_EQ(scan.Search({"Magdeburg", 0}), (MatchList{0}));
  EXPECT_EQ(scan.Search({"Magdeburg", 3}), (MatchList{0, 1}));
  EXPECT_TRUE(scan.Search({"Leipzig", 1}).empty());
  EXPECT_EQ(scan.name(), "sequential_scan");
}

TEST(ScanTest, EveryLadderStepAgrees) {
  Xoshiro256 rng(0x5CA);
  Dataset d = RandomDataset(&rng, "abcdefgh -", 150, 1, 25);
  std::vector<std::unique_ptr<SequentialScanSearcher>> engines;
  for (LadderStep step :
       {LadderStep::kBase, LadderStep::kFastEditDistance,
        LadderStep::kReferences, LadderStep::kSimpleTypes}) {
    ScanOptions options;
    options.step = step;
    engines.push_back(std::make_unique<SequentialScanSearcher>(d, options));
  }
  for (int t = 0; t < 30; ++t) {
    const Query q{RandomString(&rng, "abcdefgh -", 1, 25),
                  static_cast<int>(rng.Uniform(4))};
    const MatchList expected = BruteForceSearch(d, q);
    for (const auto& engine : engines) {
      ASSERT_EQ(engine->Search(q), expected)
          << "step " << static_cast<int>(engine->options().step) << " q='"
          << q.text << "' k=" << q.max_distance;
    }
  }
}

// Every optional feature combination must return identical results.
struct ScanConfig {
  const char* label;
  VerifyKernel kernel;
  bool sort_by_length;
  bool frequency_filter;
  int qgram_q;
};

// Printed by label, so the ctest names stay the same from build to build.
void PrintTo(const ScanConfig& cfg, std::ostream* os) { *os << cfg.label; }

class ScanConfigTest : public ::testing::TestWithParam<ScanConfig> {};

TEST_P(ScanConfigTest, OptionsNeverChangeResults) {
  const ScanConfig& cfg = GetParam();
  ScanOptions options;
  options.verify_kernel = cfg.kernel;
  options.sort_by_length = cfg.sort_by_length;
  options.frequency_filter = cfg.frequency_filter;
  options.qgram_filter_q = cfg.qgram_q;

  Xoshiro256 rng(0x5CB);
  Dataset d = RandomDataset(&rng, "ACGNT", 200, 20, 60, AlphabetKind::kDna);
  SequentialScanSearcher scan(d, options);
  for (int t = 0; t < 25; ++t) {
    std::string text(d.View(rng.Uniform(d.size())));
    for (int e = 0; e < static_cast<int>(rng.Uniform(6)); ++e) {
      text[rng.Uniform(text.size())] = "ACGNT"[rng.Uniform(5)];
    }
    for (int k : {0, 4, 8, 16}) {
      const Query q{text, k};
      ASSERT_EQ(scan.Search(q), BruteForceSearch(d, q))
          << cfg.label << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScanConfigTest,
    ::testing::Values(
        ScanConfig{"paper_step4", VerifyKernel::kPaperStep4, false, false, 0},
        ScanConfig{"banded_only", VerifyKernel::kBanded, false, false, 0},
        ScanConfig{"myers", VerifyKernel::kMyersAuto, false, false, 0},
        ScanConfig{"sorted", VerifyKernel::kMyersAuto, true, false, 0},
        ScanConfig{"freq_filter", VerifyKernel::kMyersAuto, false, true, 0},
        ScanConfig{"qgram2", VerifyKernel::kMyersAuto, false, false, 2},
        ScanConfig{"qgram3_sorted", VerifyKernel::kMyersAuto, true, false, 3},
        ScanConfig{"everything", VerifyKernel::kMyersAuto, true, true, 2},
        ScanConfig{"paper_everything", VerifyKernel::kPaperStep4, true, true,
                   2}),
    [](const ::testing::TestParamInfo<ScanConfig>& info) {
      return info.param.label;
    });

TEST(ScanTest, SortByLengthHandlesExtremeQueryLengths) {
  Dataset d = SmallCities();
  ScanOptions options;
  options.sort_by_length = true;
  SequentialScanSearcher scan(d, options);
  // Much longer than any dataset string.
  EXPECT_TRUE(scan.Search({std::string(100, 'x'), 3}).empty());
  // Empty query: matches nothing at k=3 (shortest string has length 4).
  EXPECT_TRUE(scan.Search({"", 3}).empty());
  EXPECT_EQ(scan.Search({"", 4}), (MatchList{4}));  // "Bern"
}

TEST(ScanTest, MemoryBytesGrowsWithFeatures) {
  Dataset d = SmallCities();
  SequentialScanSearcher bare(d, {});
  ScanOptions options;
  options.sort_by_length = true;
  options.frequency_filter = true;
  options.qgram_filter_q = 2;
  SequentialScanSearcher loaded(d, options);
  EXPECT_GT(loaded.memory_bytes(), bare.memory_bytes());
}

TEST(ScanTest, BatchStrategiesAgree) {
  Xoshiro256 rng(0x5CC);
  Dataset d = RandomDataset(&rng, "abcdef", 200, 2, 20);
  SequentialScanSearcher scan(d, {});
  QuerySet queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(
        {RandomString(&rng, "abcdef", 2, 20), static_cast<int>(i % 4)});
  }
  const SearchResults serial =
      scan.SearchBatch(queries, {ExecutionStrategy::kSerial, 0});
  EXPECT_EQ(scan.SearchBatch(queries,
                             {ExecutionStrategy::kThreadPerQuery, 0}),
            serial);
  EXPECT_EQ(scan.SearchBatch(queries, {ExecutionStrategy::kFixedPool, 4}),
            serial);
  EXPECT_EQ(scan.SearchBatch(queries, {ExecutionStrategy::kAdaptive, 4}),
            serial);
}

TEST(ScanTest, HighBytesInDataAreHandled) {
  Dataset d("latin1", AlphabetKind::kGeneric);
  d.Add("S\xE3o Paulo");   // São Paulo in Latin-1
  d.Add("Sao Paulo");
  d.Add("M\xFCnchen");     // München
  SequentialScanSearcher scan(d, {});
  EXPECT_EQ(scan.Search({"Sao Paulo", 1}), (MatchList{0, 1}));
  EXPECT_EQ(scan.Search({"M\xFCnchen", 0}), (MatchList{2}));
}

}  // namespace
}  // namespace sss
