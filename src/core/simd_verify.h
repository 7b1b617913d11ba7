// Many-vs-many verification: one query against a whole LanePool group of
// kLaneWidth candidates per kernel pass.
//
// Why this beats the per-pair scan even though Myers is already
// bit-parallel *within* a pair: the per-pair kernel rebuilds the 256-entry
// peq table for every candidate and holds one 64-bit DP state in a register
// file that could carry four. The LaneVerifier builds the query's peq table
// ONCE (SetQuery), then advances four independent Myers recurrences per
// column — as four uint64 lanes of plain C++ (KernelTier::kSwar) or as
// the four 64-bit lanes of one __m256i (KernelTier::kAvx2, compiled
// per-function so baseline builds still run everywhere and dispatch happens
// at runtime via util/kernel_dispatch).
//
// Early retire: a group stops as soon as every lane is settled — past its
// own last column, or proven beyond k. For k <= kMaxBandedLaneK the lanes
// run Hyyrö's banded bit-vector: one 64-bit word per lane holds the Ukkonen
// band of 2k+1 diagonals, whatever the query length, and each lane tracks
// its target diagonal D[j + m − n][j], which never decreases along the
// diagonal and so bounds the final distance from below (the paper's
// conditions 6/7, generalized to lanes of different lengths). Larger k run
// the blocked recurrence and retire on the last-row bound
// D[m][j] − (n − j), the per-pair BoundedMyers abort. The retire column
// depends only on the group, the query and k.
//
// Exactness contract: every lane's verdict is byte-identical to
// BoundedMyers(query, candidate, k) — the exact distance when it is <= k,
// else k+1. A retired lane was proven beyond k and reports k+1; a lane
// that reached its last column reports its score through the <=k clamp,
// which subsumes the per-pair length filter (distance >= |length
// difference|), so a group may mix lengths freely. The differential
// kernel-equivalence suite (tests/core/kernel_equivalence_test.cc)
// enforces this contract across all tiers on >=5000 randomized triples
// and on adversarial retire cases.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/edit_distance.h"
#include "core/lane_pool.h"
#include "io/dataset.h"
#include "util/cancellation.h"
#include "util/kernel_dispatch.h"
#include "util/status.h"

namespace sss {

/// \brief The largest k the banded lane kernel serves: its 64-bit window
/// holds the 2k+1 band diagonals plus the row the window slides in from.
inline constexpr int kMaxBandedLaneK = 31;

/// \brief Reusable many-vs-many verifier: per-query tables built once by
/// SetQuery, per-group scratch reused across VerifyGroup calls. Not
/// thread-safe; engines keep one per thread.
class LaneVerifier {
 public:
  /// \brief Prepares the query pattern. Tables for the byte and packed2
  /// column layouts are built lazily, on the first group of each kind.
  void SetQuery(std::string_view query);

  /// \brief Writes, for every lane of `group` (padding lanes included), the
  /// exact edit distance to the query when <= k, else k+1 — byte-identical
  /// to BoundedMyers per pair, for any tier. Requires k >= 0. Returns the
  /// number of text columns the lane kernel advanced before every lane was
  /// settled: a lane longer than that was retired early. The scalar
  /// reference tier reports the group's num_cols, an empty query 0.
  uint32_t VerifyGroup(const LaneGroupView& group, int k, KernelTier tier,
                       int out[kLaneWidth]);

 private:
  const uint64_t* PeqFor(const LaneGroupView& group);
  void RunScalar(const LaneGroupView& group, int k, int out[kLaneWidth]);

  std::string query_;
  size_t blocks_ = 0;
  uint64_t last_mask_ = 0;
  bool byte_peq_ready_ = false;
  bool packed2_peq_ready_ = false;
  bool cpu_has_avx2_ = DetectCpuKernelTier() == KernelTier::kAvx2;
  std::vector<uint64_t> byte_peq_;     // [blocks_ + 2][256], see PeqFor
  std::vector<uint64_t> packed2_peq_;  // [blocks_ + 2][4]
  std::vector<uint64_t> pv_, mv_;      // [blocks_][kLaneWidth] scratch
  std::string lane_text_;              // scalar-tier materialization buffer
  EditDistanceWorkspace scalar_ws_;
};

/// \brief The lane-based range scan shared by the scan-shaped engines:
/// verifies `query` against every pool candidate with id in [begin, end)
/// under `tier`, appending matches in ascending id order and reporting the
/// same candidate-funnel counters the per-pair scans report, plus
/// simd_lanes_verified, simd_lane_columns (per verified candidate, the
/// columns its group advanced) and dp_early_aborts (verified candidates
/// whose group retired before their last column). Requires a non-empty
/// query text and k >= 0 (engines route empty queries through their
/// per-pair path as simd_fallback_pairs).
/// Returns kCancelled with `out` cleared if `ctx` stops the scan.
Status LaneVerifyRange(const LanePool& pool, const Query& query,
                       const SearchContext& ctx, KernelTier tier,
                       uint32_t begin, uint32_t end, MatchList* out);

}  // namespace sss
