#include "parallel/adaptive_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace sss {
namespace {

AdaptivePoolOptions FastOptions() {
  AdaptivePoolOptions options;
  options.master_interval = std::chrono::microseconds(100);
  return options;
}

TEST(AdaptivePoolTest, RunsAllSubmittedTasks) {
  AdaptivePool pool(FastOptions());
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(AdaptivePoolTest, ParallelForCoversEveryIndexOnce) {
  AdaptivePool pool(FastOptions());
  std::vector<std::atomic<int>> hits(777);
  pool.ParallelFor(777, [&](size_t i) { hits[i].fetch_add(1); }, 5);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(AdaptivePoolTest, StartsWithInitialThreads) {
  AdaptivePoolOptions options = FastOptions();
  options.initial_threads = 3;
  options.min_threads = 1;
  options.max_threads = 8;
  AdaptivePool pool(options);
  // The constructor opens the initial workers before the master starts, so
  // these counts are settled on return. live_threads() is not: the master
  // may already have closed an idle worker.
  EXPECT_EQ(pool.total_opens(), 3u);
  EXPECT_EQ(pool.peak_threads(), 3u);
}

TEST(AdaptivePoolTest, OpensWorkersUnderSustainedPressure) {
  AdaptivePoolOptions options = FastOptions();
  options.initial_threads = 1;
  options.min_threads = 1;
  options.max_threads = 4;
  options.high_watermark = 2.0;
  AdaptivePool pool(options);
  // Flood with slow tasks: queue pressure must trigger the open rule.
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_GT(pool.total_opens(), options.initial_threads)
      << "the master never scaled up despite queue pressure";
  EXPECT_GT(pool.peak_threads(), 1u);
  EXPECT_LE(pool.peak_threads(), 4u);
}

TEST(AdaptivePoolTest, ClosesWorkersWhenIdle) {
  AdaptivePoolOptions options = FastOptions();
  options.initial_threads = 4;
  options.min_threads = 1;
  options.max_threads = 4;
  options.low_watermark = 0.5;
  AdaptivePool pool(options);
  // Idle pool: pressure is 0 < low watermark, so the master should shrink
  // toward min_threads.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.live_threads() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.live_threads(), 1u) << "idle pool did not shrink to min";
  EXPECT_GE(pool.total_closes(), 3u);
}

TEST(AdaptivePoolTest, NeverExceedsMaxThreads) {
  AdaptivePoolOptions options = FastOptions();
  options.initial_threads = 1;
  options.max_threads = 3;
  AdaptivePool pool(options);
  for (int i = 0; i < 300; ++i) {
    pool.Submit([] {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
  }
  pool.Wait();
  EXPECT_LE(pool.peak_threads(), 3u);
}

TEST(AdaptivePoolTest, SurvivesRepeatedBatches) {
  AdaptivePool pool(FastOptions());
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&](size_t) { counter.fetch_add(1); }, 4);
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(AdaptivePoolTest, CleanShutdownWithPendingWork) {
  std::atomic<int> counter{0};
  {
    AdaptivePool pool(FastOptions());
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        counter.fetch_add(1);
      });
    }
    pool.Wait();
  }  // destructor: master joins everyone
  EXPECT_EQ(counter.load(), 50);
}

TEST(AdaptivePoolTest, WaitWithNoTasksReturns) {
  AdaptivePool pool(FastOptions());
  pool.Wait();
}

// Soak tests: the seed suite hung intermittently because the master counted
// retired-but-not-yet-exited workers as live, closed its last real worker at
// the tail of a batch, and a short residual queue (pressure below the high
// watermark) could then never reopen one. Thousands of tiny batches with an
// aggressive master and oversubscribed workers reproduce that window
// reliably enough that a regression shows up as a test timeout.

TEST(AdaptivePoolSoakTest, ThousandsOfTinyBatchesSurviveCloseChurn) {
  AdaptivePoolOptions options;
  options.master_interval = std::chrono::microseconds(50);
  options.initial_threads = 4;
  options.min_threads = 1;
  options.max_threads = 8;  // oversubscribed on small containers
  // Aggressive watermarks: almost every master tick opens or closes, so
  // batch tails constantly race retirement against the last few tasks.
  options.high_watermark = 1.0;
  options.low_watermark = 0.9;
  AdaptivePool pool(options);
  std::atomic<size_t> counter{0};
  for (int batch = 0; batch < 2000; ++batch) {
    pool.ParallelFor(3, [&](size_t) { counter.fetch_add(1); }, 1);
  }
  EXPECT_EQ(counter.load(), 6000u);
  EXPECT_LE(pool.peak_threads(), 8u);
}

TEST(AdaptivePoolSoakTest, TrickledSingleTasksNeverStrand) {
  // One task at a time is the worst case for the reopen rule: queue
  // pressure never exceeds 1, so recovery cannot rely on bulk submits.
  AdaptivePoolOptions options;
  options.master_interval = std::chrono::microseconds(50);
  options.initial_threads = 2;
  options.min_threads = 1;
  options.max_threads = 4;
  options.low_watermark = 0.99;
  AdaptivePool pool(options);
  std::atomic<size_t> counter{0};
  for (int i = 0; i < 3000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
    if (i % 16 == 0) pool.Wait();
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 3000u);
}

TEST(AdaptivePoolSoakTest, RapidConstructDestroyWithPendingWork) {
  std::atomic<size_t> counter{0};
  for (int round = 0; round < 200; ++round) {
    AdaptivePoolOptions options;
    options.master_interval = std::chrono::microseconds(50);
    options.initial_threads = 3;
    options.max_threads = 6;
    AdaptivePool pool(options);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    if (round % 2 == 0) pool.Wait();
    // Odd rounds destruct with work possibly queued: the destructor must
    // drain, not drop or deadlock.
  }
  EXPECT_EQ(counter.load(), 200u * 16u);
}

}  // namespace
}  // namespace sss
