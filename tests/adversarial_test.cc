// Adversarial inputs: datasets built to stress representation assumptions —
// NUL bytes, 0xFF bytes, empty strings, one-symbol monocultures, extreme
// length skew, total duplication. Every engine must stay correct (checked
// against brute force) and must not crash or hang.
#include <gtest/gtest.h>

#include <memory>

#include "core/searcher.h"
#include "test_util.h"
#include "util/random.h"

namespace sss {
namespace {

using sss::testing::BruteForceSearch;

std::vector<std::unique_ptr<Searcher>> AllGenericEngines(const Dataset& d) {
  std::vector<std::unique_ptr<Searcher>> engines;
  for (EngineKind kind :
       {EngineKind::kSequentialScan, EngineKind::kTrieIndex,
        EngineKind::kCompressedTrieIndex, EngineKind::kPartitionIndex}) {
    engines.push_back(std::move(MakeSearcher(kind, d)).ValueOrDie());
  }
  return engines;
}

void ExpectAllEnginesAgree(const Dataset& d, const QuerySet& queries) {
  const auto engines = AllGenericEngines(d);
  for (const Query& q : queries) {
    const MatchList expected = BruteForceSearch(d, q);
    for (const auto& engine : engines) {
      ASSERT_EQ(engine->Search(q), expected)
          << engine->name() << " k=" << q.max_distance << " |q|="
          << q.text.size();
    }
  }
}

TEST(AdversarialTest, EmbeddedNulBytes) {
  Dataset d("nul", AlphabetKind::kGeneric);
  d.Add(std::string("a\0b", 3));
  d.Add(std::string("a\0c", 3));
  d.Add(std::string("\0\0\0", 3));
  d.Add("abc");
  ExpectAllEnginesAgree(
      d, {{std::string("a\0b", 3), 0},
          {std::string("a\0b", 3), 1},
          {std::string("\0", 1), 2},
          {"abc", 1}});
}

TEST(AdversarialTest, HighBytes) {
  Dataset d("high", AlphabetKind::kGeneric);
  d.Add("\xFF\xFE\xFD");
  d.Add("\xFF\xFE\xFC");
  d.Add("\x80\x80");
  ExpectAllEnginesAgree(d, {{"\xFF\xFE\xFD", 0},
                            {"\xFF\xFE\xFD", 1},
                            {"\x80\x80\x80", 1}});
}

TEST(AdversarialTest, ManyEmptyStrings) {
  Dataset d("empties", AlphabetKind::kGeneric);
  for (int i = 0; i < 20; ++i) d.Add("");
  d.Add("a");
  d.Add("ab");
  ExpectAllEnginesAgree(d, {{"", 0}, {"", 1}, {"a", 1}, {"xyz", 2}});
}

TEST(AdversarialTest, SingleSymbolMonoculture) {
  // Pathological trie: one long chain; pathological BK-tree: distances are
  // pure length differences.
  Dataset d("mono", AlphabetKind::kGeneric);
  for (size_t len = 0; len <= 40; ++len) d.Add(std::string(len, 'a'));
  ExpectAllEnginesAgree(d, {{std::string(20, 'a'), 0},
                            {std::string(20, 'a'), 3},
                            {std::string(45, 'a'), 4},
                            {"", 2},
                            {std::string(20, 'b'), 2}});
}

TEST(AdversarialTest, TotalDuplication) {
  Dataset d("dups", AlphabetKind::kGeneric);
  for (int i = 0; i < 64; ++i) d.Add("clone");
  ExpectAllEnginesAgree(d, {{"clone", 0}, {"clone", 2}, {"alone", 1}});
}

TEST(AdversarialTest, ExtremeLengthSkew) {
  Dataset d("skew", AlphabetKind::kGeneric);
  d.Add("a");
  d.Add(std::string(500, 'x') + "tail");
  d.Add(std::string(500, 'x') + "tali");
  d.Add("b");
  QuerySet queries = {{std::string(500, 'x') + "tail", 2},
                      {"a", 1},
                      {std::string(499, 'x') + "tail", 1}};
  ExpectAllEnginesAgree(d, queries);
}

TEST(AdversarialTest, SharedPrefixExplosion) {
  // Strings sharing a 30-char prefix; trie pruning must still terminate
  // fast and correctly when the divergence is at the tail.
  Dataset d("prefix", AlphabetKind::kGeneric);
  const std::string prefix(30, 'p');
  for (int i = 0; i < 50; ++i) {
    d.Add(prefix + static_cast<char>('a' + i % 26) +
          std::to_string(i));
  }
  ExpectAllEnginesAgree(d, {{prefix + "a0", 0},
                            {prefix + "a0", 2},
                            {prefix, 4},
                            {"q" + prefix + "a0", 1}});
}

TEST(AdversarialTest, LargeThresholdSwallowsEverything) {
  Xoshiro256 rng(0xADF);
  Dataset d("all", AlphabetKind::kGeneric);
  for (int i = 0; i < 40; ++i) {
    d.Add(sss::testing::RandomString(&rng, "ab", 0, 6));
  }
  // k bigger than any string: every id matches.
  const Query q{"aaa", 10};
  const auto engines = AllGenericEngines(d);
  for (const auto& engine : engines) {
    ASSERT_EQ(engine->Search(q).size(), d.size()) << engine->name();
  }
}

}  // namespace
}  // namespace sss
