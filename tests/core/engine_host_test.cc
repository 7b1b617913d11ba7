// EngineHost lifecycle tests: generation publishing, per-request pinning
// under concurrent reloads (never a mixed-generation answer), cancellation
// and failure leaving the old generation serving, and snapshot version
// monotonicity.
#include "core/engine_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.h"
#include "test_util.h"
#include "util/random.h"
#include "util/search_stats.h"

namespace sss {
namespace {

using testing::RandomDataset;

constexpr std::string_view kAlpha = "abcdefghij";

/// A dataset of `n` copies of "aaaa" — every k=0 "aaaa" query matches all n,
/// so the match count identifies which generation answered.
Dataset UniformDataset(size_t n) {
  Dataset d("uniform", AlphabetKind::kGeneric);
  for (size_t i = 0; i < n; ++i) d.Add("aaaa");
  return d;
}

std::vector<EngineSpec> ScanOnly() {
  return {EngineSpec::For(EngineKind::kSequentialScan)};
}

TEST(EngineSpecTest, ParseKnownNames) {
  auto scan = ParseEngineSpec("scan");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->id, static_cast<uint8_t>(EngineKind::kSequentialScan));
  EXPECT_FALSE(scan->auto_router);

  auto autor = ParseEngineSpec("auto");
  ASSERT_TRUE(autor.ok());
  EXPECT_EQ(autor->id, kAutoEngineId);
  EXPECT_TRUE(autor->auto_router);

  EXPECT_FALSE(ParseEngineSpec("no_such_engine").ok());
  // Retired engines are unknown names, and the diagnostic offers only the
  // engines that remain.
  for (const char* retired : {"packed", "qgram", "bktree"}) {
    const auto result = ParseEngineSpec(retired);
    ASSERT_FALSE(result.ok()) << retired;
    const std::string msg = result.status().ToString();
    EXPECT_TRUE(msg.ends_with("registered engines: scan, trie, ctrie, "
                              "partition, auto, approx[:tables=N,bits=M]"))
        << msg;
  }
}

TEST(EngineSpecTest, ParseApproxSpecWithOptions) {
  auto plain = ParseEngineSpec("approx");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->id, kApproxEngineId);
  EXPECT_TRUE(plain->approx);
  EXPECT_EQ(plain->approx_tables, 8u);
  EXPECT_EQ(plain->approx_bits, 16u);

  auto tuned = ParseEngineSpec("approx:tables=12,bits=20");
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned->approx_tables, 12u);
  EXPECT_EQ(tuned->approx_bits, 20u);

  auto partial = ParseEngineSpec("approx:bits=8");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->approx_tables, 8u);
  EXPECT_EQ(partial->approx_bits, 8u);
}

TEST(EngineSpecTest, UnknownNameErrorEnumeratesTheRegistry) {
  const auto result = ParseEngineSpec("nope");
  ASSERT_FALSE(result.ok());
  const std::string msg = result.status().ToString();
  EXPECT_NE(msg.find("unknown engine 'nope'"), std::string::npos) << msg;
  // The diagnostic lists every registered spec, so a typo is self-repairing.
  for (const char* name :
       {"scan", "trie", "ctrie", "partition", "auto", "approx"}) {
    EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
  }
  EXPECT_NE(KnownEngineSpecsHelp().find("approx"), std::string::npos);
}

TEST(EngineSpecTest, MalformedApproxOptionsAreDiagnosed) {
  // Non-numeric value: the message names the offending option.
  auto bad_value = ParseEngineSpec("approx:tables=x");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().ToString().find("tables"), std::string::npos)
      << bad_value.status().ToString();

  // Unknown key.
  EXPECT_FALSE(ParseEngineSpec("approx:depth=3").ok());
  // Out-of-range values.
  EXPECT_FALSE(ParseEngineSpec("approx:tables=0").ok());
  EXPECT_FALSE(ParseEngineSpec("approx:bits=65").ok());
  // Missing '=' entirely.
  EXPECT_FALSE(ParseEngineSpec("approx:tables").ok());
}

TEST(EngineSpecTest, OptionsOnNonApproxSpecsAreRejected) {
  const auto result = ParseEngineSpec("scan:tables=8");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("scan"), std::string::npos)
      << result.status().ToString();
}

TEST(EngineHostTest, NoGenerationBeforeFirstLoad) {
  EngineHost host(ScanOnly());
  EXPECT_EQ(host.Acquire(), nullptr);
  EXPECT_EQ(host.generation(), 0u);
  EXPECT_FALSE(host.Reload().ok());  // no source path yet
}

TEST(EngineHostTest, LoadPublishesEveryEngineAndTheSnapshotVersion) {
  Xoshiro256 rng(0x10ad);
  std::vector<EngineSpec> specs = {
      EngineSpec::For(EngineKind::kSequentialScan),
      EngineSpec::For(EngineKind::kTrieIndex),
      EngineSpec::Auto(),
  };
  EngineHost host(specs);
  const SnapshotHandle snapshot =
      CollectionSnapshot::Create(RandomDataset(&rng, kAlpha, 200, 3, 10));
  ASSERT_TRUE(host.Load(snapshot).ok());

  const EngineSetHandle set = host.Acquire();
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->generation, snapshot->version());
  EXPECT_EQ(host.generation(), snapshot->version());
  EXPECT_EQ(set->engines.size(), specs.size());
  for (const EngineSpec& spec : specs) {
    EXPECT_NE(set->Find(spec.id), nullptr) << unsigned{spec.id};
  }
  EXPECT_EQ(set->default_engine, set->Find(specs[0].id));
  EXPECT_EQ(set->Find(0x7E), nullptr);
  // Every engine pins the same snapshot the set advertises.
  for (const auto& engine : set->engines) {
    EXPECT_EQ(engine->SearchedSnapshot(), snapshot);
  }
}

TEST(EngineHostTest, GenerationIdsAreMonotonicAcrossLoads) {
  EngineHost host(ScanOnly());
  uint64_t previous = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        host.Load(CollectionSnapshot::Create(UniformDataset(10 + i))).ok());
    EXPECT_GT(host.generation(), previous);
    previous = host.generation();
  }
  EXPECT_EQ(host.counters().reloads_ok.load(), 4u);
}

TEST(EngineHostTest, DuplicateEngineIdFailsTheLoad) {
  EngineHost host({EngineSpec::For(EngineKind::kSequentialScan),
                   EngineSpec::For(EngineKind::kSequentialScan)});
  const Status st = host.Load(CollectionSnapshot::Create(UniformDataset(5)));
  EXPECT_TRUE(st.IsInvalid()) << st.ToString();
  EXPECT_EQ(host.Acquire(), nullptr);
  EXPECT_EQ(host.counters().reloads_failed.load(), 1u);
}

TEST(EngineHostTest, CancelledBuildLeavesOldGenerationServing) {
  EngineHost host(ScanOnly());
  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(7))).ok());
  const uint64_t before = host.generation();
  const EngineSetHandle old_set = host.Acquire();

  CancellationToken cancel;
  cancel.Cancel();
  SearchContext ctx;
  ctx.cancellation = &cancel;
  const Status st =
      host.Load(CollectionSnapshot::Create(UniformDataset(9)), ctx);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(host.generation(), before);
  EXPECT_EQ(host.Acquire(), old_set);
  EXPECT_EQ(host.counters().reloads_failed.load(), 1u);
}

TEST(EngineHostTest, FailedFileLoadLeavesOldGenerationServing) {
  StatsSink sink;
  EngineHostOptions options;
  options.stats = &sink;
  EngineHost host(ScanOnly(), options);
  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(7))).ok());
  const uint64_t before = host.generation();

  EXPECT_FALSE(host.LoadFile("/nonexistent/sss_host_test.txt").ok());
  EXPECT_EQ(host.generation(), before);
  ASSERT_NE(host.Acquire(), nullptr);
  EXPECT_EQ(host.counters().reloads_failed.load(), 1u);
  const SearchStats collected = sink.Collected();
  EXPECT_EQ(collected.host_reloads_failed, 1u);
  EXPECT_EQ(collected.host_reloads_ok, 1u);
}

TEST(EngineHostTest, LoadFileRemembersThePathForReload) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sss_engine_host_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "data.txt").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "alpha\nbeta\ngamma\n";
  }

  EngineHost host(ScanOnly());
  ASSERT_TRUE(host.LoadFile(path).ok());
  EXPECT_EQ(host.source_path(), path);
  const uint64_t first = host.generation();
  ASSERT_NE(host.Acquire(), nullptr);
  EXPECT_EQ(host.Acquire()->snapshot->dataset().size(), 3u);

  // Grow the file; Reload() must pick up the new contents under a new id.
  {
    std::ofstream out(path, std::ios::app);
    out << "delta\n";
  }
  ASSERT_TRUE(host.Reload().ok());
  EXPECT_GT(host.generation(), first);
  EXPECT_EQ(host.Acquire()->snapshot->dataset().size(), 4u);

  std::filesystem::remove_all(dir);
}

// The tentpole guarantee: a search pinned to a generation answers entirely
// from that generation's snapshot, no matter how many reloads land while it
// runs. Readers hammer Acquire()+Search while the main thread republishes
// collections of distinct sizes; every answer must equal the match count of
// exactly the pinned generation — a mixed answer (partly old, partly new
// collection) can produce no other count.
TEST(EngineHostTest, ConcurrentSearchDuringReloadNeverMixesGenerations) {
  constexpr size_t kSizeA = 300;
  constexpr size_t kSizeB = 500;
  EngineHost host(ScanOnly());
  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(kSizeA)))
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> mixed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      Query query;
      query.text = "aaaa";
      query.max_distance = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const EngineSetHandle set = host.Acquire();
        ASSERT_NE(set, nullptr);
        const size_t expected = set->snapshot->dataset().size();
        const MatchList matches = set->default_engine->Search(query);
        if (matches.size() != expected) {
          mixed.fetch_add(1, std::memory_order_relaxed);
        }
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Republishing flips the collection size every time; every flip is a
  // chance for an unpinned reader to see a half-switched world.
  uint64_t last_generation = host.generation();
  for (int i = 0; i < 50; ++i) {
    const size_t size = (i % 2 == 0) ? kSizeB : kSizeA;
    ASSERT_TRUE(
        host.Load(CollectionSnapshot::Create(UniformDataset(size))).ok());
    EXPECT_GT(host.generation(), last_generation);
    last_generation = host.generation();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_GT(searches.load(), 0u);
}

// Dropping the last pin destroys the replaced generation: after a reload,
// the old set's snapshot must die with the old set.
TEST(EngineHostTest, ReplacedGenerationDiesWhenLastPinDrops) {
  EngineHost host(ScanOnly());
  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(5))).ok());
  EngineSetHandle pinned = host.Acquire();
  std::weak_ptr<const EngineSet> watch = pinned;

  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(6))).ok());
  EXPECT_FALSE(watch.expired());  // the pin still holds the old world
  // The pinned set keeps answering from the old collection.
  Query query;
  query.text = "aaaa";
  query.max_distance = 0;
  EXPECT_EQ(pinned->default_engine->Search(query).size(), 5u);

  pinned.reset();
  EXPECT_TRUE(watch.expired());
}

// The zero-downtime bar: the publish swap — the only instant a reload
// contends with Acquire() — stays under 1 ms while readers keep acquiring.
// The median of 60 publishes is asserted, so one preempted swap on a shared
// machine cannot fail the test; anything heavyweight inside the publish
// window (an engine build, tearing down the retired set) moves every sample.
TEST(EngineHostTest, PublishWindowStaysUnderAMillisecondWhileReadersAcquire) {
  constexpr int kPublishes = 60;
  EngineHost host(ScanOnly());
  ASSERT_TRUE(host.Load(CollectionSnapshot::Create(UniformDataset(200))).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acquires{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const EngineSetHandle set = host.Acquire();
        if (set != nullptr) acquires.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<uint64_t> publish_nanos;
  for (int i = 0; i < kPublishes; ++i) {
    ASSERT_TRUE(
        host.Load(CollectionSnapshot::Create(UniformDataset(200 + i))).ok());
    publish_nanos.push_back(host.counters().last_publish_nanos.load());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::nth_element(publish_nanos.begin(),
                   publish_nanos.begin() + kPublishes / 2,
                   publish_nanos.end());
  EXPECT_LT(publish_nanos[kPublishes / 2], 1'000'000u);
  EXPECT_GT(acquires.load(), 0u);
  EXPECT_EQ(host.counters().reloads_ok.load(),
            static_cast<uint64_t>(kPublishes) + 1);
}

// Publish is the one way a generation goes live: a ready-made set over a
// borrowed engine gets the same swap, generation and counters as a built
// one, and a null set is refused without touching the current generation.
TEST(EngineHostTest, PublishSwapsInAReadyMadeSetAndCountsIt) {
  StatsSink sink;
  EngineHostOptions options;
  options.stats = &sink;
  EngineHost host(std::vector<EngineSpec>{}, options);
  const SnapshotHandle snapshot =
      CollectionSnapshot::Create(UniformDataset(7));
  auto engine = MakeSearcher(EngineKind::kSequentialScan, snapshot);
  ASSERT_TRUE(engine.ok());

  auto ready = std::make_shared<EngineSet>();
  ready->snapshot = snapshot;
  ready->generation = snapshot->version();
  ready->by_id[3] = engine->get();
  ready->default_engine = engine->get();
  ASSERT_TRUE(host.Publish(ready).ok());
  EXPECT_EQ(host.generation(), snapshot->version());
  EXPECT_EQ(host.Acquire(), ready);
  EXPECT_EQ(host.counters().reloads_ok.load(), 1u);
  EXPECT_EQ(sink.Collected().host_reloads_ok, 1u);

  EXPECT_TRUE(host.Publish(nullptr).IsInvalid());
  EXPECT_EQ(host.Acquire(), ready);
  EXPECT_EQ(host.counters().reloads_ok.load(), 1u);
}

TEST(SnapshotTest, OwnedAndBorrowedSnapshotsGetDistinctRisingVersions) {
  Dataset borrowed_from("b", AlphabetKind::kGeneric);
  borrowed_from.Add("x");
  const SnapshotHandle owned =
      CollectionSnapshot::Create(UniformDataset(2), "somewhere.txt");
  const SnapshotHandle borrowed = CollectionSnapshot::Borrow(borrowed_from);
  EXPECT_GT(borrowed->version(), owned->version());
  EXPECT_TRUE(owned->owns_dataset());
  EXPECT_FALSE(borrowed->owns_dataset());
  EXPECT_EQ(owned->source_path(), "somewhere.txt");
  EXPECT_EQ(&borrowed->dataset(), &borrowed_from);
  EXPECT_GE(CollectionSnapshot::LatestVersion(), borrowed->version());
}

}  // namespace
}  // namespace sss
