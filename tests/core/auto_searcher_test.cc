#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/auto_searcher.h"
#include "gen/workload.h"
#include "test_util.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;
using sss::testing::RandomDataset;
using sss::testing::RandomString;

TEST(AutoSearcherTest, RoutesCityWorkloadToScan) {
  const gen::Workload w =
      gen::MakeWorkload(gen::WorkloadKind::kCityNames, 0.005, 1);
  AutoSearcher engine(w.dataset);
  EXPECT_FALSE(engine.PrefersIndex());
  EXPECT_EQ(engine.RouteFor(2), "scan");
}

TEST(AutoSearcherTest, RoutesDnaWorkloadToTrie) {
  const gen::Workload w =
      gen::MakeWorkload(gen::WorkloadKind::kDnaReads, 0.001, 2);
  AutoSearcher engine(w.dataset);
  EXPECT_TRUE(engine.PrefersIndex());
  EXPECT_EQ(engine.RouteFor(8), "trie");
  // Hopeless thresholds degrade to the scan even on index-friendly data.
  EXPECT_EQ(engine.RouteFor(80), "scan");
}

TEST(AutoSearcherTest, ResultsMatchBruteForceOnBothRoutes) {
  Xoshiro256 rng(0xA070);
  for (const char* alphabet : {"abcdefghij -", "ACGT"}) {
    const bool dna = std::string_view(alphabet) == "ACGT";
    Dataset d = RandomDataset(&rng, alphabet, 150, dna ? 60 : 2,
                              dna ? 80 : 20,
                              dna ? AlphabetKind::kDna
                                  : AlphabetKind::kGeneric);
    AutoSearcher engine(d);
    for (int t = 0; t < 20; ++t) {
      const Query q{
          RandomString(&rng, alphabet, dna ? 60 : 2, dna ? 80 : 20),
          static_cast<int>(rng.Uniform(5))};
      ASSERT_EQ(engine.Search(q), BruteForceSearch(d, q))
          << (dna ? "dna" : "city") << " q='" << q.text << "'";
    }
  }
}

TEST(AutoSearcherTest, LazyBuildOnlyWhatIsUsed) {
  const gen::Workload w =
      gen::MakeWorkload(gen::WorkloadKind::kCityNames, 0.002, 3);
  AutoSearcher engine(w.dataset);
  EXPECT_EQ(engine.memory_bytes(), 0u);  // nothing built yet
  (void)engine.Search({"anything", 1});
  const size_t after_scan = engine.memory_bytes();
  // The scan engine has no auxiliary structures by default; the trie was
  // not built (city data routes to the scan).
  EXPECT_EQ(after_scan, 0u);
}

TEST(AutoSearcherTest, DegradesTimedOutTrieProbeToScan) {
  Xoshiro256 rng(0xA071);
  // Long narrow-alphabet strings: the router prefers the trie.
  Dataset d = RandomDataset(&rng, "ACGT", 200, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.probe_fraction = 0.0;  // zero probe budget: the probe always
                                 // expires, forcing the degradation path
  AutoSearcher engine(d, options);
  ASSERT_TRUE(engine.PrefersIndex());

  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  ctx.check_interval = 1;
  const Query q{RandomString(&rng, "ACGT", 60, 80), 3};
  MatchList out;
  const Status st = engine.Search(q, ctx, &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, BruteForceSearch(d, q));
  EXPECT_GE(engine.degraded_probes(), 1u);
}

TEST(AutoSearcherTest, ScanAffordableFollowsTheCostModel) {
  Xoshiro256 rng(0xA075);
  Dataset d = RandomDataset(&rng, "ACGT", 200, 60, 80, AlphabetKind::kDna);

  // Infinite deadline: always affordable, whatever the cost model says.
  AutoSearcherOptions expensive;
  expensive.scan_cell_ns = 1e18;
  EXPECT_TRUE(AutoSearcher(d, expensive)
                  .ScanAffordable(4, Deadline::Infinite()));
  // A huge per-cell cost makes any finite budget insufficient.
  EXPECT_FALSE(AutoSearcher(d, expensive)
                   .ScanAffordable(4, Deadline::After(std::chrono::hours(1))));
  // A zero per-cell cost makes any unexpired budget sufficient.
  AutoSearcherOptions free_scan;
  free_scan.scan_cell_ns = 0.0;
  EXPECT_TRUE(AutoSearcher(d, free_scan)
                  .ScanAffordable(4, Deadline::After(std::chrono::hours(1))));
}

TEST(AutoSearcherTest, TimedOutProbeRetriesOnScanWhenAffordable) {
  Xoshiro256 rng(0xA076);
  Dataset d = RandomDataset(&rng, "ACGT", 200, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.probe_fraction = 0.0;  // the probe always expires
  options.scan_cell_ns = 0.0;    // ... and the scan is always affordable
  AutoSearcher engine(d, options);
  ASSERT_TRUE(engine.PrefersIndex());

  StatsSink sink;
  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  ctx.check_interval = 1;
  ctx.stats = &sink;
  const Query q{RandomString(&rng, "ACGT", 60, 80), 3};
  MatchList out;
  ASSERT_TRUE(engine.Search(q, ctx, &out).ok());
  EXPECT_EQ(out, BruteForceSearch(d, q));  // the scan answer is exact
  EXPECT_EQ(engine.degraded_to_scan(), 1u);
  EXPECT_EQ(engine.degraded_to_approx(), 0u);
  EXPECT_EQ(engine.degraded_probes(), 1u);
  const SearchStats stats = sink.Collected();
  EXPECT_EQ(stats.degraded_probes, 1u);
  EXPECT_EQ(stats.degraded_to_scan, 1u);
  EXPECT_EQ(stats.degraded_to_approx, 0u);
}

TEST(AutoSearcherTest, TimedOutProbeFallsToApproxWhenScanIsNot) {
  Xoshiro256 rng(0xA077);
  Dataset d = RandomDataset(&rng, "ACGT", 300, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.probe_fraction = 0.0;  // the probe always expires
  options.scan_cell_ns = 1e18;   // ... and the scan can never fit the budget
  AutoSearcher engine(d, options);
  ASSERT_TRUE(engine.PrefersIndex());

  StatsSink sink;
  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  ctx.check_interval = 1;
  ctx.stats = &sink;
  // A corpus string at k = 0: the approx tier finds it with certainty, so
  // the degraded answer is non-trivially correct, not just a subset.
  const Query q{std::string(d.View(7)), 0};
  MatchList out;
  ASSERT_TRUE(engine.Search(q, ctx, &out).ok());
  const MatchList exact = BruteForceSearch(d, q);
  EXPECT_TRUE(std::includes(exact.begin(), exact.end(), out.begin(),
                            out.end()));
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(engine.degraded_to_approx(), 1u);
  EXPECT_EQ(engine.degraded_to_scan(), 0u);
  EXPECT_EQ(engine.degraded_probes(), 1u);
  const SearchStats stats = sink.Collected();
  EXPECT_EQ(stats.degraded_probes, 1u);
  EXPECT_EQ(stats.degraded_to_approx, 1u);
  EXPECT_EQ(stats.degraded_to_scan, 0u);
  EXPECT_GT(stats.approx_candidates_verified, 0u);
}

TEST(AutoSearcherTest, ScanRouteDegradesDirectlyToApprox) {
  // Short wide-alphabet-free DNA at a hopeless threshold routes to the scan
  // up front; with a finite deadline that cannot afford it, the query goes
  // straight to the approx tier — no trie probe, so degraded_probes stays 0.
  Xoshiro256 rng(0xA078);
  Dataset d = RandomDataset(&rng, "ACGT", 300, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.scan_cell_ns = 1e18;
  AutoSearcher engine(d, options);
  const int hopeless_k = 60;  // k/avg_len > high_k_ratio: the scan route
  ASSERT_EQ(engine.RouteFor(hopeless_k), "scan");

  StatsSink sink;
  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  ctx.check_interval = 1;
  ctx.stats = &sink;
  const Query q{std::string(d.View(3)), hopeless_k};
  MatchList out;
  ASSERT_TRUE(engine.Search(q, ctx, &out).ok());
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(engine.degraded_to_approx(), 1u);
  EXPECT_EQ(engine.degraded_probes(), 0u);
  EXPECT_EQ(engine.degraded_to_scan(), 0u);
  const SearchStats stats = sink.Collected();
  EXPECT_EQ(stats.degraded_to_approx, 1u);
  EXPECT_EQ(stats.degraded_probes, 0u);
}

TEST(AutoSearcherTest, ApproxDegradationCanBeDisabled) {
  Xoshiro256 rng(0xA079);
  Dataset d = RandomDataset(&rng, "ACGT", 150, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.probe_fraction = 0.0;
  options.scan_cell_ns = 1e18;       // approx-ward if it were allowed...
  options.approx_degradation = false;  // ... but it is not
  AutoSearcher engine(d, options);
  SearchContext ctx;
  ctx.deadline = Deadline::After(std::chrono::hours(1));
  ctx.check_interval = 1;
  const Query q{RandomString(&rng, "ACGT", 60, 80), 3};
  MatchList out;
  ASSERT_TRUE(engine.Search(q, ctx, &out).ok());
  EXPECT_EQ(out, BruteForceSearch(d, q));  // the pre-approx behavior
  EXPECT_EQ(engine.degraded_to_scan(), 1u);
  EXPECT_EQ(engine.degraded_to_approx(), 0u);
}

TEST(AutoSearcherTest, NoDeadlineNeverDegrades) {
  Xoshiro256 rng(0xA072);
  Dataset d = RandomDataset(&rng, "ACGT", 100, 60, 80, AlphabetKind::kDna);
  AutoSearcherOptions options;
  options.probe_fraction = 0.0;
  AutoSearcher engine(d, options);
  const Query q{RandomString(&rng, "ACGT", 60, 80), 2};
  EXPECT_EQ(engine.Search(q), BruteForceSearch(d, q));
  EXPECT_EQ(engine.degraded_probes(), 0u);
}

TEST(AutoSearcherTest, ExpiredOverallDeadlineStillCancels) {
  Xoshiro256 rng(0xA073);
  Dataset d = RandomDataset(&rng, "ACGT", 100, 60, 80, AlphabetKind::kDna);
  AutoSearcher engine(d);
  SearchContext ctx;
  ctx.deadline = Deadline::AfterMillis(-1);
  ctx.check_interval = 1;
  MatchList out;
  const Status st = engine.Search({RandomString(&rng, "ACGT", 60, 80), 2},
                                  ctx, &out);
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace sss
