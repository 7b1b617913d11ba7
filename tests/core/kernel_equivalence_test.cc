// Differential kernel-equivalence suite for the many-vs-many verify tiers
// (core/simd_verify): every executable tier — scalar, SWAR, and AVX2 when
// the CPU has it — must return BYTE-IDENTICAL verdicts to the per-pair
// reference on the same (query, candidate, k) triples. The suite drives the
// tiers four ways:
//
//   1. exhaustively over small alphabets (every boundary of the Myers
//      recurrence at tiny sizes, including the packed2 DNA column layout);
//   2. on >= 5000 randomized triples per tier spanning short, ~100-symbol
//      and multi-word queries;
//   3. on adversarial lane groups built to stress the early retire
//      (KernelRetireTest);
//   4. through whole engines, where all KernelTierChoice values must
//      produce identical match lists under serial and sharded execution.
//
// Metamorphic properties of edit distance (symmetry, triangle inequality,
// unit-edit Lipschitz bounds, prefix steps) are checked per tier as well —
// they catch systematic kernel errors that a buggy reference could mask.
//
// CI runs this binary under SSS_FORCE_KERNEL_TIER=scalar|swar|avx2 (and an
// -msse2 baseline build); KernelDispatchTest.EnvForceRespected asserts the
// override actually took effect in those jobs.

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lane_pool.h"
#include "core/scan.h"
#include "core/searcher.h"
#include "core/simd_verify.h"
#include "io/dataset.h"
#include "test_util.h"
#include "util/kernel_dispatch.h"
#include "util/random.h"

namespace sss {
namespace {

using testing::BruteForceSearch;
using testing::RandomString;
using testing::ReferenceEditDistance;

/// The tiers this machine can actually execute. kScalar and kSwar always
/// run; kAvx2 joins when CPUID reports AVX2 (on other machines the AVX2
/// rows of the differential matrix are covered by CI's forced-tier jobs on
/// AVX2 runners).
std::vector<KernelTier> ExecutableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kScalar, KernelTier::kSwar};
  if (DetectCpuKernelTier() == KernelTier::kAvx2) {
    tiers.push_back(KernelTier::kAvx2);
  }
  return tiers;
}

/// What every tier must report for a triple: the exact distance when <= k,
/// else k + 1 (the BoundedMyers contract).
int ClampedReference(const std::string& query, const std::string& candidate,
                     int k) {
  const int d = ReferenceEditDistance(query, candidate);
  return d <= k ? d : k + 1;
}

/// Runs one (query, candidate) pair through the real pool builder and the
/// lane verifier: a one-string dataset yields a pool whose only group holds
/// the candidate in lane 0.
int LaneDistance(LaneVerifier* verifier, const std::string& query,
                 const std::string& candidate, int k, KernelTier tier,
                 AlphabetKind kind = AlphabetKind::kGeneric) {
  Dataset dataset("pair", kind);
  dataset.Add(candidate);
  const LanePool pool = LanePool::Build(dataset);
  for (const LanePool::Bucket& bucket : pool.buckets()) {
    if (bucket.num_candidates == 0) continue;
    verifier->SetQuery(query);
    int out[kLaneWidth];
    verifier->VerifyGroup(pool.Group(bucket, 0), k, tier, out);
    return out[0];
  }
  ADD_FAILURE() << "candidate landed in no bucket";
  return -1;
}

/// All strings of length `len` over `alphabet`, appended to `out`.
void EnumerateStrings(std::string_view alphabet, size_t len,
                      std::vector<std::string>* out) {
  if (len == 0) {
    out->emplace_back();
    return;
  }
  std::vector<std::string> shorter;
  EnumerateStrings(alphabet, len - 1, &shorter);
  for (const std::string& s : shorter) {
    for (char c : alphabet) out->push_back(s + c);
  }
}

TEST(KernelEquivalenceTest, ExhaustiveSmallAlphabet) {
  std::vector<std::string> strings;
  for (size_t len = 0; len <= 4; ++len) EnumerateStrings("ab", len, &strings);
  LaneVerifier verifier;
  const std::vector<KernelTier> tiers = ExecutableTiers();
  for (const std::string& q : strings) {
    for (const std::string& c : strings) {
      for (int k = 0; k <= 4; ++k) {
        const int want = ClampedReference(q, c, k);
        for (KernelTier tier : tiers) {
          EXPECT_EQ(LaneDistance(&verifier, q, c, k, tier), want)
              << "tier=" << ToString(tier) << " q=\"" << q << "\" c=\"" << c
              << "\" k=" << k;
        }
      }
    }
  }
}

// The DNA exhaustive pass goes through the packed2 column layout (pure-ACGT
// candidates pack four 2-bit codes per column byte), exercising the 4-entry
// peq table path the generic test above never touches.
TEST(KernelEquivalenceTest, ExhaustiveDnaPacked2) {
  std::vector<std::string> strings;
  for (size_t len = 0; len <= 3; ++len) {
    EnumerateStrings("ACGT", len, &strings);
  }
  LaneVerifier verifier;
  const std::vector<KernelTier> tiers = ExecutableTiers();
  for (const std::string& q : strings) {
    for (const std::string& c : strings) {
      for (int k : {0, 1, 3}) {
        const int want = ClampedReference(q, c, k);
        for (KernelTier tier : tiers) {
          EXPECT_EQ(LaneDistance(&verifier, q, c, k, tier, AlphabetKind::kDna),
                    want)
              << "tier=" << ToString(tier) << " q=\"" << q << "\" c=\"" << c
              << "\" k=" << k;
        }
      }
    }
  }
}

// The acceptance-criteria workhorse: >= 5000 randomized triples, each
// verified on every executable tier against the clamped reference. The
// three regimes pin all kernel shapes: short generic strings (one peq
// word), ~100-symbol DNA (packed2, and byte mode via an occasional 'N'),
// and long strings crossing 64 and 128 symbols (band windows spanning
// word boundaries). k stays <= 12 here; MixedLengthGroupsPerLaneCapture
// and KernelRetireTest cover the blocked kernel (k > 31).
TEST(KernelEquivalenceTest, RandomizedTriplesAllTiersMatchReference) {
  Xoshiro256 rng(20260810);
  LaneVerifier verifier;
  const std::vector<KernelTier> tiers = ExecutableTiers();
  constexpr int kTriples = 5200;
  for (int iter = 0; iter < kTriples; ++iter) {
    std::string q, c;
    AlphabetKind kind = AlphabetKind::kGeneric;
    switch (iter % 3) {
      case 0:  // one-block generic
        q = RandomString(&rng, "abcdez", 0, 40);
        c = RandomString(&rng, "abcdez", 0, 40);
        break;
      case 1:  // two-block DNA; every 5th candidate carries 'N' (byte mode)
        q = RandomString(&rng, "ACGT", 80, 120);
        c = RandomString(&rng, iter % 15 == 1 ? "ACGTN" : "ACGT", 80, 120);
        kind = AlphabetKind::kDna;
        break;
      default:  // generic multi-block, lengths straddling 64 and 128
        q = RandomString(&rng, "abc", 50, 170);
        c = RandomString(&rng, "abc", 50, 170);
        break;
    }
    const int k = static_cast<int>(rng.Uniform(13));
    const int want = ClampedReference(q, c, k);
    for (KernelTier tier : tiers) {
      ASSERT_EQ(LaneDistance(&verifier, q, c, k, tier, kind), want)
          << "iter=" << iter << " tier=" << ToString(tier) << " q=\"" << q
          << "\" c=\"" << c << "\" k=" << k;
    }
  }
}

// Full groups with mixed lengths inside one bucket: every lane must capture
// its own final score (the per-lane blend at lengths[l] == j + 1), not the
// group's last column.
TEST(KernelEquivalenceTest, MixedLengthGroupsPerLaneCapture) {
  Xoshiro256 rng(99);
  Dataset dataset("groups", AlphabetKind::kDna);
  for (int i = 0; i < 64; ++i) {
    // Lengths 96..103 share the width-8 bucket [96, 104).
    dataset.Add(RandomString(&rng, i % 7 == 0 ? "ACGTN" : "ACGT", 96, 103));
  }
  const LanePool pool = LanePool::Build(dataset);
  LaneVerifier verifier;
  const std::string q = RandomString(&rng, "ACGT", 95, 105);
  verifier.SetQuery(q);
  for (KernelTier tier : ExecutableTiers()) {
    for (const LanePool::Bucket& bucket : pool.buckets()) {
      for (size_t g = 0; g < bucket.num_groups(); ++g) {
        const LaneGroupView group = pool.Group(bucket, g);
        for (int k : {0, 2, 7, 150}) {
          int out[kLaneWidth];
          verifier.VerifyGroup(group, k, tier, out);
          for (uint32_t l = 0; l < group.active; ++l) {
            const std::string c(dataset.View(group.ids[l]));
            EXPECT_EQ(out[l], ClampedReference(q, c, k))
                << "tier=" << ToString(tier) << " id=" << group.ids[l]
                << " k=" << k;
          }
        }
      }
    }
  }
}

// --- Adversarial early-retire cases. A group stops once every lane is
// --- settled, so each case below builds one explicit group and checks every
// --- lane on every tier against the clamped reference; the wide tiers must
// --- also agree on the column the group retired at.

/// `s` with `edits` random substitutions, insertions or deletions.
std::string Mutate(Xoshiro256* rng, std::string s, int edits,
                   std::string_view alphabet) {
  for (int e = 0; e < edits; ++e) {
    const char c = alphabet[rng->Uniform(alphabet.size())];
    const size_t pos = s.empty() ? 0 : rng->Uniform(s.size());
    switch (s.empty() ? 1 : rng->Uniform(3)) {
      case 0:
        s[pos] = c;
        break;
      case 1:
        s.insert(s.begin() + static_cast<ptrdiff_t>(pos), c);
        break;
      default:
        s.erase(s.begin() + static_cast<ptrdiff_t>(pos));
        break;
    }
  }
  return s;
}

struct GroupRun {
  uint32_t columns = 0;  // the retire column the wide tiers agreed on
  uint32_t num_cols = 0;
  bool packed2 = false;
};

/// Puts `lanes` (at most kLaneWidth candidates) into ONE lane group — a
/// single wide length bucket holds them all — and checks every tier's
/// verdict for every lane against the clamped reference.
GroupRun CheckGroup(LaneVerifier* verifier, const std::string& query,
                    const std::vector<std::string>& lanes, int k,
                    AlphabetKind kind) {
  Dataset dataset("group", kind);
  for (const std::string& lane : lanes) dataset.Add(lane);
  LanePoolOptions options;
  options.length_bucket_width = 1u << 20;
  const LanePool pool = LanePool::Build(dataset, options);
  GroupRun run;
  if (pool.buckets().size() != 1 || pool.buckets()[0].num_groups() != 1) {
    ADD_FAILURE() << "the lanes did not form one group";
    return run;
  }
  const LaneGroupView group = pool.Group(pool.buckets()[0], 0);
  run.num_cols = group.num_cols;
  run.packed2 = group.packed2;
  verifier->SetQuery(query);
  bool have_columns = false;
  for (KernelTier tier : ExecutableTiers()) {
    int out[kLaneWidth];
    const uint32_t columns = verifier->VerifyGroup(group, k, tier, out);
    for (uint32_t l = 0; l < group.active; ++l) {
      const std::string lane(dataset.View(group.ids[l]));
      EXPECT_EQ(out[l], ClampedReference(query, lane, k))
          << "tier=" << ToString(tier) << " k=" << k << " lane=" << l
          << " q=\"" << query << "\" c=\"" << lane << "\"";
    }
    if (tier == KernelTier::kScalar) continue;
    EXPECT_LE(columns, group.num_cols) << "tier=" << ToString(tier);
    if (have_columns) {
      EXPECT_EQ(columns, run.columns) << "tier=" << ToString(tier);
    }
    run.columns = columns;
    have_columns = true;
  }
  return run;
}

// m <= k: the initial last-row score m is itself <= k, so a lane the group
// retires before its last column must report k + 1, never that initial m.
TEST(KernelRetireTest, QueryNoLongerThanK) {
  Xoshiro256 rng(31);
  LaneVerifier verifier;
  for (int iter = 0; iter < 300; ++iter) {
    const int k = 1 + static_cast<int>(rng.Uniform(12));
    const std::string q = RandomString(&rng, "ACGT", 1, k);
    std::vector<std::string> lanes;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      lanes.push_back(RandomString(&rng, "ACGT", 0, 3 * k + 4));
    }
    CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
  }
  // The blocked kernel (k above the band limit) with lanes far longer than
  // the query: all fail the length filter and retire at column 0.
  const std::string q = RandomString(&rng, "ACGT", 5, 10);
  std::vector<std::string> lanes;
  for (uint32_t l = 0; l < kLaneWidth; ++l) {
    lanes.push_back(RandomString(&rng, "ACGT", 60, 90));
  }
  const int k = kMaxBandedLaneK + 9;
  EXPECT_EQ(CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna).columns,
            0u);
}

// One lane within k of the query keeps the group running to its last
// column; the three hopeless lanes beside it report k + 1.
TEST(KernelRetireTest, OneMatchingLaneBesideThreeHopeless) {
  Xoshiro256 rng(32);
  LaneVerifier verifier;
  for (int iter = 0; iter < 200; ++iter) {
    const int k = static_cast<int>(rng.Uniform(17));
    const std::string q = RandomString(&rng, "ACGT", 90, 110);
    std::vector<std::string> lanes;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      lanes.push_back(RandomString(&rng, "ACGT", 90, 110));
    }
    const uint32_t match = static_cast<uint32_t>(rng.Uniform(kLaneWidth));
    lanes[match] = Mutate(&rng, q, static_cast<int>(rng.Uniform(k + 1)),
                          "ACGT");
    const GroupRun run = CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
    EXPECT_GE(run.columns, lanes[match].size());
  }
}

// Short lanes close to the query end (and are captured) while a longer
// lane still holds the group open; hopeless short lanes end as well.
TEST(KernelRetireTest, LanesEndBeforeTheGroupRetires) {
  Xoshiro256 rng(33);
  LaneVerifier verifier;
  for (int iter = 0; iter < 200; ++iter) {
    const int k = 2 + static_cast<int>(rng.Uniform(10));
    const std::string q = RandomString(&rng, "ACGT", 40, 80);
    std::vector<std::string> lanes = {Mutate(&rng, q, 1, "ACGT")};
    for (uint32_t l = 1; l < kLaneWidth; ++l) {
      const size_t cut = q.size() - 1 - rng.Uniform(k);
      lanes.push_back(l == 3 ? RandomString(&rng, "ACGT", cut, cut)
                             : Mutate(&rng, q.substr(0, cut), 1, "ACGT"));
    }
    const GroupRun run = CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
    EXPECT_GE(run.columns, lanes[0].size());
  }
}

// Lanes whose length differs from the query's by more than k are settled
// before the first column; the group runs only for the lanes that pass.
TEST(KernelRetireTest, LanesFailingTheLengthFilter) {
  Xoshiro256 rng(34);
  LaneVerifier verifier;
  for (int iter = 0; iter < 200; ++iter) {
    const int k = static_cast<int>(rng.Uniform(40));
    const std::string q = RandomString(&rng, "ACGT", 30, 70);
    std::vector<std::string> lanes = {
        RandomString(&rng, "ACGT", q.size() + k + 1, q.size() + k + 30),
        RandomString(&rng, "ACGT", 0, q.size() > static_cast<size_t>(k) + 1
                                          ? q.size() - k - 1
                                          : 0),
        Mutate(&rng, q, static_cast<int>(rng.Uniform(k + 1)), "ACGT"),
        RandomString(&rng, "ACGT", q.size() + k + 1, q.size() + k + 5)};
    CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
  }
  // Every lane fails: nothing runs.
  const std::string q = RandomString(&rng, "ACGT", 50, 50);
  const std::vector<std::string> far = {RandomString(&rng, "ACGT", 70, 70),
                                        RandomString(&rng, "ACGT", 80, 80),
                                        RandomString(&rng, "ACGT", 20, 20)};
  EXPECT_EQ(CheckGroup(&verifier, q, far, 8, AlphabetKind::kDna).columns, 0u);
}

// k = 0: only an exact copy survives; a single edit retires the lane.
TEST(KernelRetireTest, ZeroThreshold) {
  Xoshiro256 rng(35);
  LaneVerifier verifier;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string q = RandomString(&rng, "ACGT", 1, 120);
    std::vector<std::string> lanes = {q};
    for (uint32_t l = 1; l < kLaneWidth; ++l) {
      lanes.push_back(Mutate(&rng, q, 1, "ACGT"));
    }
    CheckGroup(&verifier, q, lanes, 0, AlphabetKind::kDna);
  }
}

// Either side of the one-word band limit, on lanes whose distance lands
// around the threshold. The query with exactly k deletions has distance k
// and a retire bound of exactly k from column 0 on, so alone in its group
// it is lost by a retire on "bound >= k" instead of "bound > k".
TEST(KernelRetireTest, ThresholdsAroundTheBandLimit) {
  Xoshiro256 rng(36);
  LaneVerifier verifier;
  for (int iter = 0; iter < 120; ++iter) {
    const std::string q = RandomString(&rng, "ACGT", 40, 140);
    for (int k : {kMaxBandedLaneK, kMaxBandedLaneK + 1}) {
      std::string deleted = q;
      for (int e = 0; e < k; ++e) {
        deleted.erase(rng.Uniform(deleted.size()), 1);
      }
      CheckGroup(&verifier, q, {deleted}, k, AlphabetKind::kDna);
      std::vector<std::string> lanes = {deleted};
      for (uint32_t l = 1; l < kLaneWidth; ++l) {
        lanes.push_back(
            Mutate(&rng, q, 28 + static_cast<int>(rng.Uniform(8)), "ACGT"));
      }
      CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
    }
  }
}

// Queries longer than two 64-bit blocks: the band window slides across
// three or more peq words, and the blocked kernel spills its state.
TEST(KernelRetireTest, QueriesLongerThan128) {
  Xoshiro256 rng(37);
  LaneVerifier verifier;
  for (int iter = 0; iter < 120; ++iter) {
    const std::string q = RandomString(&rng, "ACGT", 129, 300);
    std::vector<std::string> lanes;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      lanes.push_back(rng.Uniform(4) == 0
                          ? RandomString(&rng, "ACGT", 129, 300)
                          : Mutate(&rng, q,
                                   static_cast<int>(rng.Uniform(50)), "ACGT"));
    }
    for (int k : {3, 17, kMaxBandedLaneK, kMaxBandedLaneK + 1, 45}) {
      CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
    }
  }
}

// Reads containing 'N' cannot pack into 2-bit codes, so their group uses
// the byte column layout and the 256-row peq table.
TEST(KernelRetireTest, ReadsWithNInByteLayoutGroups) {
  Xoshiro256 rng(38);
  LaneVerifier verifier;
  for (int iter = 0; iter < 200; ++iter) {
    const int k = static_cast<int>(rng.Uniform(20));
    const std::string q = RandomString(&rng, "ACGTN", 60, 110);
    std::vector<std::string> lanes = {
        Mutate(&rng, q, static_cast<int>(rng.Uniform(k + 2)), "ACGTN")};
    for (uint32_t l = 1; l < kLaneWidth; ++l) {
      lanes.push_back(RandomString(&rng, "ACGT", 60, 110));
    }
    lanes.back() += 'N';
    const GroupRun run = CheckGroup(&verifier, q, lanes, k, AlphabetKind::kDna);
    EXPECT_FALSE(run.packed2);
  }
}

// --- Metamorphic properties, checked per tier with k large enough that the
// --- clamp never engages (so the kernels report exact distances).

int ExactDistance(LaneVerifier* verifier, const std::string& x,
                  const std::string& y, KernelTier tier) {
  if (x.empty()) return static_cast<int>(y.size());  // lane path needs m > 0
  const int k = static_cast<int>(x.size() + y.size());
  return LaneDistance(verifier, x, y, k, tier);
}

TEST(KernelEquivalenceTest, PropertySymmetry) {
  Xoshiro256 rng(7);
  LaneVerifier verifier;
  for (KernelTier tier : ExecutableTiers()) {
    for (int iter = 0; iter < 300; ++iter) {
      const std::string x = RandomString(&rng, "abcd", 0, 90);
      const std::string y = RandomString(&rng, "abcd", 0, 90);
      EXPECT_EQ(ExactDistance(&verifier, x, y, tier),
                ExactDistance(&verifier, y, x, tier))
          << "tier=" << ToString(tier);
    }
  }
}

TEST(KernelEquivalenceTest, PropertyTriangleInequality) {
  Xoshiro256 rng(8);
  LaneVerifier verifier;
  for (KernelTier tier : ExecutableTiers()) {
    for (int iter = 0; iter < 300; ++iter) {
      const std::string x = RandomString(&rng, "abc", 0, 70);
      const std::string y = RandomString(&rng, "abc", 0, 70);
      const std::string z = RandomString(&rng, "abc", 0, 70);
      const int xz = ExactDistance(&verifier, x, z, tier);
      const int xy = ExactDistance(&verifier, x, y, tier);
      const int yz = ExactDistance(&verifier, y, z, tier);
      EXPECT_LE(xz, xy + yz) << "tier=" << ToString(tier);
      EXPECT_GE(xz, std::abs(xy - yz)) << "tier=" << ToString(tier);
    }
  }
}

TEST(KernelEquivalenceTest, PropertyUnitEditChangesDistanceByAtMostOne) {
  Xoshiro256 rng(9);
  LaneVerifier verifier;
  const std::string_view alphabet = "ACGT";
  for (KernelTier tier : ExecutableTiers()) {
    for (int iter = 0; iter < 300; ++iter) {
      const std::string x = RandomString(&rng, alphabet, 1, 100);
      std::string y = RandomString(&rng, alphabet, 1, 100);
      const int before = ExactDistance(&verifier, x, y, tier);
      // One random edit on y: substitute, insert, or delete.
      const size_t pos = rng.Uniform(y.size());
      switch (rng.Uniform(3)) {
        case 0:
          y[pos] = alphabet[rng.Uniform(alphabet.size())];
          break;
        case 1:
          y.insert(y.begin() + static_cast<ptrdiff_t>(pos),
                   alphabet[rng.Uniform(alphabet.size())]);
          break;
        default:
          y.erase(y.begin() + static_cast<ptrdiff_t>(pos));
          break;
      }
      const int after = ExactDistance(&verifier, x, y, tier);
      EXPECT_LE(std::abs(before - after), 1) << "tier=" << ToString(tier);
    }
  }
}

TEST(KernelEquivalenceTest, PropertyPrefixStepsAreLipschitz) {
  Xoshiro256 rng(10);
  LaneVerifier verifier;
  for (KernelTier tier : ExecutableTiers()) {
    for (int iter = 0; iter < 60; ++iter) {
      const std::string x = RandomString(&rng, "ab", 1, 80);
      const std::string y = RandomString(&rng, "ab", 1, 80);
      // Appending one symbol to the candidate moves the distance by at most
      // one, and ed(x, eps) == |x| anchors the walk.
      int prev = static_cast<int>(x.size());
      for (size_t j = 1; j <= y.size(); ++j) {
        const int cur = ExactDistance(&verifier, x, y.substr(0, j), tier);
        EXPECT_LE(std::abs(cur - prev), 1)
            << "tier=" << ToString(tier) << " prefix=" << j;
        prev = cur;
      }
    }
  }
}

// --- Engine-level differential: every KernelTierChoice must yield the same
// --- match lists from whole engines, serial and sharded, and match brute
// --- force.

constexpr KernelTierChoice kAllChoices[] = {
    KernelTierChoice::kScalar, KernelTierChoice::kSwar,
    KernelTierChoice::kAvx2, KernelTierChoice::kAuto};

TEST(KernelEquivalenceTest, ScanEngineIdenticalAcrossTierChoices) {
  Xoshiro256 rng(11);
  const Dataset dataset = testing::RandomDataset(&rng, "ACGTN", 400, 3, 90,
                                                 AlphabetKind::kDna);
  SequentialScanSearcher scan(dataset, ScanOptions{});
  QuerySet queries;
  for (int i = 0; i < 25; ++i) {
    queries.push_back(Query{RandomString(&rng, "ACGT", 3, 90),
                            static_cast<int>(rng.Uniform(9))});
  }
  queries.push_back(Query{"", 4});  // empty query: per-pair fallback path
  for (const Query& query : queries) {
    const MatchList want = BruteForceSearch(dataset, query);
    for (KernelTierChoice choice : kAllChoices) {
      SearchContext ctx;
      ctx.kernel_tier = choice;
      MatchList got;
      ASSERT_TRUE(scan.Search(query, ctx, &got).ok());
      EXPECT_EQ(got, want) << "choice=" << ToString(choice) << " q=\""
                           << query.text << "\" k=" << query.max_distance;
    }
  }
}

TEST(KernelEquivalenceTest, ShardedExecutionIdenticalAcrossTierChoices) {
  Xoshiro256 rng(13);
  const Dataset dataset = testing::RandomDataset(&rng, "ACGT", 500, 10, 80,
                                                 AlphabetKind::kDna);
  SequentialScanSearcher scan(dataset, ScanOptions{});
  QuerySet queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(Query{RandomString(&rng, "ACGT", 10, 80),
                            static_cast<int>(rng.Uniform(7))});
  }
  ExecutionOptions sharded;
  sharded.strategy = ExecutionStrategy::kSharded;
  sharded.num_threads = 3;
  sharded.shard_size = 64;  // shard boundaries cut through lane groups
  SearchResults want;
  for (const Query& query : queries) {
    want.push_back(BruteForceSearch(dataset, query));
  }
  for (KernelTierChoice choice : kAllChoices) {
    SearchContext ctx;
    ctx.kernel_tier = choice;
    const BatchResult batch = scan.SearchBatch(queries, sharded, ctx);
    ASSERT_EQ(batch.matches.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch.matches[i], want[i])
          << "choice=" << ToString(choice) << " query=" << i;
    }
  }
}

// --- Dispatch plumbing.

TEST(KernelDispatchTest, ParseAndToStringRoundTrip) {
  for (KernelTierChoice choice : kAllChoices) {
    const std::optional<KernelTierChoice> parsed =
        ParseKernelTierChoice(ToString(choice));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, choice);
  }
  EXPECT_FALSE(ParseKernelTierChoice("").has_value());
  EXPECT_FALSE(ParseKernelTierChoice("AVX2").has_value());
  EXPECT_FALSE(ParseKernelTierChoice("sse2").has_value());
}

TEST(KernelDispatchTest, ResolveClampsToDetectedTier) {
  const KernelTier detected = DetectCpuKernelTier();
  EXPECT_GE(detected, KernelTier::kSwar);  // SWAR is plain C++
  if (KernelTierForced()) GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER overrides";
  EXPECT_EQ(ResolveKernelTier(KernelTierChoice::kScalar),
            KernelTier::kScalar);
  EXPECT_EQ(ResolveKernelTier(KernelTierChoice::kSwar), KernelTier::kSwar);
  EXPECT_EQ(ResolveKernelTier(KernelTierChoice::kAuto), detected);
  EXPECT_LE(ResolveKernelTier(KernelTierChoice::kAvx2), detected);
}

// Under CI's forced-tier matrix this asserts the override took effect; in a
// normal run it asserts no override is active and skips.
TEST(KernelDispatchTest, EnvForceRespected) {
  const char* env = std::getenv("SSS_FORCE_KERNEL_TIER");
  if (env == nullptr) {
    EXPECT_FALSE(KernelTierForced());
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER not set";
  }
  const std::optional<KernelTierChoice> choice = ParseKernelTierChoice(env);
  if (!choice.has_value()) {
    EXPECT_FALSE(KernelTierForced());
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER unparseable: forced tier ignored";
  }
  if (*choice == KernelTierChoice::kAuto) {
    // "auto" force keeps the detected tier active but does not override
    // per-context choices (that is what makes it "auto").
    EXPECT_FALSE(KernelTierForced());
    EXPECT_EQ(ActiveKernelTier(), DetectCpuKernelTier());
    GTEST_SKIP() << "SSS_FORCE_KERNEL_TIER=auto does not force";
  }
  ASSERT_TRUE(KernelTierForced());
  const KernelTier detected = DetectCpuKernelTier();
  KernelTier expected;
  if (*choice == KernelTierChoice::kAuto) {
    expected = detected;
  } else {
    expected = static_cast<KernelTier>(*choice);
    if (expected > detected) expected = detected;  // clamped, never illegal
  }
  EXPECT_EQ(ActiveKernelTier(), expected);
  // A forced tier overrides every per-context choice.
  for (KernelTierChoice c : kAllChoices) {
    EXPECT_EQ(ResolveKernelTier(c), expected) << "choice=" << ToString(c);
  }
}

}  // namespace
}  // namespace sss
