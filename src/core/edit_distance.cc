#include "core/edit_distance.h"

#include <algorithm>
#include <cstdlib>

#include "util/macros.h"

namespace sss {

namespace {

inline int Min3(int a, int b, int c) {
  int m = a < b ? a : b;
  return m < c ? m : c;
}

inline int AbsLenDiff(std::string_view x, std::string_view y) {
  return static_cast<int>(x.size() > y.size() ? x.size() - y.size()
                                              : y.size() - x.size());
}

}  // namespace

int EditDistanceFullMatrix(std::string_view x, std::string_view y) {
  const size_t lx = x.size();
  const size_t ly = y.size();
  // The (l_x+1) × (l_y+1) matrix of §2.2, rows indexed by x.
  std::vector<std::vector<int>> m(lx + 1, std::vector<int>(ly + 1, 0));
  for (size_t i = 0; i <= lx; ++i) m[i][0] = static_cast<int>(i);
  for (size_t j = 0; j <= ly; ++j) m[0][j] = static_cast<int>(j);
  for (size_t i = 1; i <= lx; ++i) {
    for (size_t j = 1; j <= ly; ++j) {
      if (x[i - 1] == y[j - 1]) {
        m[i][j] = m[i - 1][j - 1];  // condition (3)
      } else {
        m[i][j] = 1 + Min3(m[i - 1][j], m[i][j - 1], m[i - 1][j - 1]);  // (4)
      }
    }
  }
  return m[lx][ly];
}

int EditDistanceTwoRow(std::string_view x, std::string_view y) {
  // Keep the shorter string horizontal so the rows are minimal.
  if (x.size() < y.size()) std::swap(x, y);
  const size_t lx = x.size();
  const size_t ly = y.size();
  std::vector<int> prev(ly + 1), cur(ly + 1);
  for (size_t j = 0; j <= ly; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= lx; ++i) {
    cur[0] = static_cast<int>(i);
    const char xi = x[i - 1];
    for (size_t j = 1; j <= ly; ++j) {
      cur[j] = xi == y[j - 1]
                   ? prev[j - 1]
                   : 1 + Min3(prev[j], cur[j - 1], prev[j - 1]);
    }
    std::swap(prev, cur);
  }
  return prev[ly];
}

int BoundedEditDistance(std::string_view x, std::string_view y, int k,
                        EditDistanceWorkspace* ws) {
  SSS_DCHECK(k >= 0);
  // Length filter, eq. (5): d = |l_x − l_y| is a lower bound on ed.
  if (AbsLenDiff(x, y) > k) return k + 1;
  if (k == 0) return x == y ? 0 : 1;
  ++ws->kernel.banded_calls;
  // Keep the shorter string horizontal.
  if (x.size() < y.size()) std::swap(x, y);
  const int lx = static_cast<int>(x.size());
  const int ly = static_cast<int>(y.size());
  // Degenerate row: ed(x, ε) = l_x, and the length filter already ensured
  // l_x ≤ k (the band machinery below assumes ly ≥ 1).
  if (ly == 0) return lx;
  const int inf = k + 1;  // any value > k means "no match"; saturate here

  // Banded DP: a cell (i, j) with |i − j| > k is ≥ |i − j| > k, so only the
  // band of width 2k+1 around the main diagonal is computed.
  ws->row0.assign(static_cast<size_t>(ly) + 1, inf);
  ws->row1.assign(static_cast<size_t>(ly) + 1, inf);
  int* prev = ws->row0.data();
  int* cur = ws->row1.data();
  for (int j = 0; j <= std::min(ly, k); ++j) prev[j] = j;

  for (int i = 1; i <= lx; ++i) {
    const int jlo = std::max(1, i - k);
    const int jhi = std::min(ly, i + k);
    if (jlo > jhi) {
      ++ws->kernel.early_aborts;  // band left the matrix entirely
      return inf;
    }
    cur[jlo - 1] = (i - (jlo - 1)) <= k && jlo - 1 == 0 ? i : inf;
    const char xi = x[i - 1];
    int band_min = inf;
    for (int j = jlo; j <= jhi; ++j) {
      int v;
      if (xi == y[j - 1]) {
        v = prev[j - 1];
      } else {
        v = 1 + Min3(prev[j], cur[j - 1], prev[j - 1]);
        if (v > inf) v = inf;
      }
      cur[j] = v;
      if (v < band_min) band_min = v;
    }
    // Early abort (generalizes conditions (6)/(7)): DP values never drop
    // below the running band minimum, so once the whole band exceeds k the
    // final cell must too.
    if (band_min > k) {
      ++ws->kernel.early_aborts;
      return inf;
    }
    // Reset the stale cell beyond the band so the next row reads inf there.
    if (jhi + 1 <= ly) cur[jhi + 1] = inf;
    std::swap(prev, cur);
  }
  return prev[ly] <= k ? prev[ly] : inf;
}

int BoundedEditDistance(std::string_view x, std::string_view y, int k) {
  EditDistanceWorkspace ws;
  return BoundedEditDistance(x, y, k, &ws);
}

namespace {

// Prepares ws->peq (256 bitmask entries) for pattern x; returns the cleanup
// list implicitly by zeroing only the touched entries afterwards in the
// callers, which reset via ClearPeq.
void BuildPeq(std::string_view x, std::vector<uint64_t>* peq) {
  peq->assign(256, 0);
  for (size_t i = 0; i < x.size(); ++i) {
    (*peq)[static_cast<unsigned char>(x[i])] |= uint64_t{1} << i;
  }
}

}  // namespace

int MyersEditDistance64(std::string_view x, std::string_view y,
                        EditDistanceWorkspace* ws) {
  SSS_DCHECK(x.size() <= 64);
  if (x.empty()) return static_cast<int>(y.size());
  const int m = static_cast<int>(x.size());
  BuildPeq(x, &ws->peq);
  const uint64_t* peq = ws->peq.data();
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = m;
  const uint64_t last = uint64_t{1} << (m - 1);
  for (char c : y) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    if (mh & last) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

namespace {

// One column step of Hyyrö's blocked Myers for block `b`.
// hin ∈ {-1, 0, +1} is the horizontal delta entering the block from above;
// returns the delta leaving the block.
inline int AdvanceBlock(uint64_t* pv_arr, uint64_t* mv_arr, uint64_t eq,
                        size_t b, uint64_t out_mask, int hin) {
  uint64_t pv = pv_arr[b];
  uint64_t mv = mv_arr[b];
  const uint64_t xv = eq | mv;
  if (hin < 0) eq |= 1;
  const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  uint64_t ph = mv | ~(xh | pv);
  uint64_t mh = pv & xh;
  int hout = 0;
  if (ph & out_mask) hout = 1;
  if (mh & out_mask) hout = -1;
  ph <<= 1;
  mh <<= 1;
  if (hin < 0) {
    mh |= 1;
  } else if (hin > 0) {
    ph |= 1;
  }
  pv_arr[b] = mh | ~(xv | ph);
  mv_arr[b] = ph & xv;
  return hout;
}

}  // namespace

int MyersEditDistanceBlocked(std::string_view x, std::string_view y,
                             EditDistanceWorkspace* ws) {
  if (x.empty()) return static_cast<int>(y.size());
  if (x.size() <= 64) return MyersEditDistance64(x, y, ws);
  const size_t m = x.size();
  const size_t blocks = (m + 63) / 64;

  // peq_block is laid out [char][block].
  ws->peq_block.assign(256 * blocks, 0);
  for (size_t i = 0; i < m; ++i) {
    ws->peq_block[static_cast<unsigned char>(x[i]) * blocks + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  ws->pv_block.assign(blocks, ~uint64_t{0});
  ws->mv_block.assign(blocks, 0);

  uint64_t* pv = ws->pv_block.data();
  uint64_t* mv = ws->mv_block.data();
  const uint64_t* peq = ws->peq_block.data();

  int score = static_cast<int>(m);
  const size_t last_block = blocks - 1;
  const uint64_t last_mask = uint64_t{1} << ((m - 1) % 64);

  for (char c : y) {
    const uint64_t* eq_row = peq + static_cast<unsigned char>(c) * blocks;
    // The top boundary row D[0][j] = j advances by +1 each column — the
    // blocked equivalent of the unconditional `ph = (ph << 1) | 1` in the
    // single-word kernel.
    int carry = 1;
    for (size_t b = 0; b < blocks; ++b) {
      const uint64_t out_mask =
          b == last_block ? last_mask : (uint64_t{1} << 63);
      carry = AdvanceBlock(pv, mv, eq_row[b], b, out_mask, carry);
    }
    score += carry;
  }
  return score;
}

int BoundedMyers(std::string_view x, std::string_view y, int k,
                 EditDistanceWorkspace* ws) {
  SSS_DCHECK(k >= 0);
  if (AbsLenDiff(x, y) > k) return k + 1;
  if (k == 0) return x == y ? 0 : 1;
  if (x.empty()) return static_cast<int>(y.size());
  ++ws->kernel.myers_calls;

  // Run the bit-parallel recurrence with an early abort: each remaining text
  // column can lower the score by at most 1, so once
  // score − columns_left > k the final score must exceed k.
  const int n = static_cast<int>(y.size());
  if (x.size() <= 64) {
    const int m = static_cast<int>(x.size());
    BuildPeq(x, &ws->peq);
    const uint64_t* peq = ws->peq.data();
    uint64_t pv = ~uint64_t{0};
    uint64_t mvec = 0;
    int score = m;
    const uint64_t last = uint64_t{1} << (m - 1);
    for (int col = 0; col < n; ++col) {
      const uint64_t eq = peq[static_cast<unsigned char>(y[col])];
      const uint64_t xv = eq | mvec;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mvec | ~(xh | pv);
      uint64_t mh = pv & xh;
      if (ph & last) ++score;
      if (mh & last) --score;
      ph = (ph << 1) | 1;
      mh <<= 1;
      pv = mh | ~(xv | ph);
      mvec = ph & xv;
      if (score - (n - 1 - col) > k) {
        ++ws->kernel.early_aborts;
        return k + 1;
      }
    }
    return score <= k ? score : k + 1;
  }

  // Long pattern: blocked recurrence with the same abort.
  const size_t m = x.size();
  const size_t blocks = (m + 63) / 64;
  ws->peq_block.assign(256 * blocks, 0);
  for (size_t i = 0; i < m; ++i) {
    ws->peq_block[static_cast<unsigned char>(x[i]) * blocks + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  ws->pv_block.assign(blocks, ~uint64_t{0});
  ws->mv_block.assign(blocks, 0);
  uint64_t* pv = ws->pv_block.data();
  uint64_t* mv = ws->mv_block.data();
  const uint64_t* peq = ws->peq_block.data();
  int score = static_cast<int>(m);
  const size_t last_block = blocks - 1;
  const uint64_t last_mask = uint64_t{1} << ((m - 1) % 64);
  for (int col = 0; col < n; ++col) {
    const uint64_t* eq_row =
        peq + static_cast<unsigned char>(y[col]) * blocks;
    int carry = 1;  // top boundary row, as in MyersEditDistanceBlocked
    for (size_t b = 0; b < blocks; ++b) {
      const uint64_t out_mask =
          b == last_block ? last_mask : (uint64_t{1} << 63);
      carry = AdvanceBlock(pv, mv, eq_row[b], b, out_mask, carry);
    }
    score += carry;
    if (score - (n - 1 - col) > k) {
      ++ws->kernel.early_aborts;
      return k + 1;
    }
  }
  return score <= k ? score : k + 1;
}

bool WithinDistance(std::string_view x, std::string_view y, int k,
                    EditDistanceWorkspace* ws) {
  if (AbsLenDiff(x, y) > k) return false;
  if (k == 0) return x == y;
  // Small thresholds favor the banded DP (2k+1 cells per row); larger ones
  // favor the bit-parallel kernel whose cost is independent of k.
  if (k <= 3) return BoundedEditDistance(x, y, k, ws) <= k;
  return BoundedMyers(x, y, k, ws) <= k;
}

}  // namespace sss
