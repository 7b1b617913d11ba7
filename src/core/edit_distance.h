// Edit-distance kernels.
//
// The paper's optimization story (§2.2, §3.2) runs through these functions:
//   * EditDistanceFullMatrix — the textbook (l_x+1)×(l_y+1) matrix of §2.2,
//     used by the step-1 reference implementation;
//   * EditDistanceTwoRow — same recurrence, O(min(l_x,l_y)) memory;
//   * BoundedEditDistance — the step-2 kernel: length filter (eq. 5),
//     banded computation, and the main-diagonal early abort of
//     conditions (6)/(7);
//   * MyersEditDistance / BoundedMyers — Myers' bit-parallel algorithm
//     (beyond the paper; used by the library's best configuration and the
//     kernel ablation bench).
//
// All kernels agree exactly; tests cross-check them pairwise and against a
// brute-force recursive definition.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/search_stats.h"

namespace sss {

/// \brief Unit-cost Levenshtein distance via the full DP matrix (§2.2).
/// O(l_x · l_y) time and memory. The reference every other kernel is
/// validated against.
int EditDistanceFullMatrix(std::string_view x, std::string_view y);

/// \brief Same distance with two rolling rows; O(min) memory.
int EditDistanceTwoRow(std::string_view x, std::string_view y);

/// \brief Scratch buffers for bounded computations, reusable across calls so
/// the scan's hot loop performs no allocation (paper §3.3/§3.4).
struct EditDistanceWorkspace {
  std::vector<int> row0;
  std::vector<int> row1;
  std::vector<uint64_t> peq;        // Myers pattern-match bitmasks (256)
  std::vector<uint64_t> peq_block;  // blocked Myers masks (256 × blocks)
  std::vector<uint64_t> mv_block;   // blocked Myers vertical-negative masks
  std::vector<uint64_t> pv_block;   // blocked Myers vertical-positive masks
  std::vector<int> score_block;     // blocked Myers per-block scores

  /// Monotone call/abort counters the bounded kernels maintain. Engines
  /// snapshot these around their verify loop and report the delta (see
  /// SearchStats::AddKernelDelta); the workspace is thread-local in every
  /// engine, so the delta is exact regardless of execution strategy.
  KernelCounters kernel;
};

/// \brief Bounded distance: returns ed(x, y) if it is ≤ k, otherwise any
/// value > k (callers must only compare against k).
///
/// Applies, in order: the length filter |l_x − l_y| > k (eq. 5), a banded
/// DP of width 2k+1 (cells off the band cannot be ≤ k), and the paper's
/// early abort — once the band minimum (which dominates the main-diagonal
/// test of conditions (6)/(7)) exceeds k, no later cell can recover.
int BoundedEditDistance(std::string_view x, std::string_view y, int k,
                        EditDistanceWorkspace* ws);

/// \brief Convenience overload with an internal workspace (slower; tests).
int BoundedEditDistance(std::string_view x, std::string_view y, int k);

/// \brief True iff ed(x, y) ≤ k, via the fastest applicable kernel.
bool WithinDistance(std::string_view x, std::string_view y, int k,
                    EditDistanceWorkspace* ws);

/// \brief Myers' bit-parallel distance for patterns up to 64 symbols.
/// Precondition: x.size() <= 64.
int MyersEditDistance64(std::string_view x, std::string_view y,
                        EditDistanceWorkspace* ws);

/// \brief Myers' blocked bit-parallel distance for arbitrary lengths.
int MyersEditDistanceBlocked(std::string_view x, std::string_view y,
                             EditDistanceWorkspace* ws);

/// \brief Bounded Myers: like BoundedEditDistance but bit-parallel. Returns
/// a value > k when the distance exceeds k (may abort early).
int BoundedMyers(std::string_view x, std::string_view y, int k,
                 EditDistanceWorkspace* ws);

}  // namespace sss
