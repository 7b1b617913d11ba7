#include "core/simd_verify.h"

#include <algorithm>

#include "core/filters.h"
#include "util/bitpack.h"
#include "util/macros.h"
#include "util/search_stats.h"

// The AVX2 lane kernel is compiled whenever the compiler supports
// function-level target attributes on x86 — including baseline -msse2
// builds — and is entered only when CPUID reported AVX2 at runtime
// (util/kernel_dispatch decides once per process).
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SSS_HAVE_AVX2_LANE_KERNEL 1
#include <immintrin.h>
#else
#define SSS_HAVE_AVX2_LANE_KERNEL 0
#endif

namespace sss {

namespace {

/// Everything a lane kernel needs for one group, marshalled once. A kernel
/// advances columns until every lane is settled, then reports how many it
/// ran; scores[] holds the raw distance of every lane whose last column lies
/// within them (VerifyGroup clamps, so every tier clamps identically).
struct LaneKernelJob {
  const uint64_t* peq = nullptr;  // [word][symbol]: see LaneVerifier::PeqFor
  size_t symbols = 0;             // symbols per peq word row
  size_t blocks = 0;
  uint64_t last_mask = 0;
  int64_t m = 0;  // query length
  int64_t k = 0;
  const LaneGroupView* group = nullptr;
  uint64_t* pv = nullptr;  // blocks × kLaneWidth scratch (blocked kernel)
  uint64_t* mv = nullptr;
  int64_t scores[kLaneWidth] = {0, 0, 0, 0};
  uint32_t columns = 0;  // columns advanced before the group retired
};

// The per-lane symbol indices of column j under either column layout.
inline void ColumnSymbols(const LaneGroupView& g, uint32_t j,
                          size_t sym[kLaneWidth]) {
  if (g.packed2) {
    const uint8_t byte = g.data[j];
    sym[0] = byte & 3u;
    sym[1] = (byte >> 2) & 3u;
    sym[2] = (byte >> 4) & 3u;
    sym[3] = (byte >> 6) & 3u;
  } else {
    const uint8_t* col = g.data + static_cast<size_t>(j) * kLaneWidth;
    sym[0] = col[0];
    sym[1] = col[1];
    sym[2] = col[2];
    sym[3] = col[3];
  }
}

// --- Banded kernel (k <= kMaxBandedLaneK).
//
// Hyyrö's banded bit-vector: the state after column j is ONE 64-bit word
// per lane holding the vertical deltas of rows j − k .. j − k + 63, which
// covers the Ukkonen band of diagonals [−k, k]. Each column the window
// slides one row down: the old words shift right by one, the row entering
// at the bottom takes Δv = +1 and the row above the top gives Δh = +1. Both
// are costs of real alignment paths, so every value the band holds is an
// achievable cost (>= the true distance), and every cell of an alignment
// of cost <= k lies inside the band, so those cells are exact. Rows above
// row 1 are virtual with D[i][j] = j − i, which all-match pattern symbols
// reproduce (word 0 of every peq row is all ones): row 0 then carries the
// boundary D[0][j] = j with no special case.
//
// Each lane follows its own target diagonal d = m − n (bit d + k): its
// score is D[j + d][j], which rises by one exactly where Myers' D0 bit
// ("diagonal unchanged") is clear. At j = n it is the answer. Before that
// it bounds the answer from below — the paper's main-diagonal abort
// (conditions 6/7) for a lane of any length: if the lane's distance is
// <= k, every cell of its target diagonal is <= k and inside the band, so
// a score above k proves the lane misses. A lane that fails the length
// filter starts above k with an empty diagonal mask, so its score only
// climbs.

/// 64 bits of symbol c's padded pattern row starting at bit 64·w + s
/// (s in [0, 64)); `word` points at word row w.
inline uint64_t BandWord(const uint64_t* word, size_t symbols, size_t c,
                         unsigned s) {
  return (word[c] >> s) | ((word[symbols + c] << 1) << (63 - s));
}

/// Bit position in a padded peq row of the band's top row at column j.
inline size_t BandOffset(uint32_t j, int64_t k) {
  return static_cast<size_t>(64 + static_cast<int64_t>(j) - k);
}

/// The starting score |m − n| of a lane and its diagonal bit (0 when the
/// lane fails the length filter).
inline void BandedLaneStart(int64_t m, uint32_t n, int64_t k, int64_t* score,
                            uint64_t* diag) {
  const int64_t d = m - static_cast<int64_t>(n);
  *score = d < 0 ? -d : d;
  *diag = *score <= k ? uint64_t{1} << (d + k) : 0;
}

void RunSwarBanded(LaneKernelJob& job) {
  const LaneGroupView& g = *job.group;
  const int64_t k = job.k;
  uint64_t pv[kLaneWidth], mv[kLaneWidth], diag[kLaneWidth];
  int64_t score[kLaneWidth];
  for (uint32_t l = 0; l < kLaneWidth; ++l) {
    BandedLaneStart(job.m, g.lengths[l], k, &score[l], &diag[l]);
    job.scores[l] = score[l];
    pv[l] = ~uint64_t{0} << (k + 1);  // rows >= 1: D[i][0] = i
    mv[l] = ~pv[l];                   // virtual rows: D[i][0] = −i
  }
  size_t sym[kLaneWidth];
  uint32_t j = 0;
  for (;; ++j) {
    bool open = false;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      open |= g.lengths[l] > j && score[l] <= k;
    }
    if (!open) break;
    ColumnSymbols(g, j, sym);
    const size_t p = BandOffset(j, k);
    const uint64_t* word = job.peq + (p >> 6) * job.symbols;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      const uint64_t eq = BandWord(word, job.symbols, sym[l], p & 63);
      const uint64_t pvs = (pv[l] >> 1) | (uint64_t{1} << 63);
      const uint64_t mvs = mv[l] >> 1;
      const uint64_t xv = eq | mvs;
      const uint64_t xh = (((eq & pvs) + pvs) ^ pvs) | eq;
      if (((xh | mvs) & diag[l]) == 0) ++score[l];
      const uint64_t ph = ((mvs | ~(xh | pvs)) << 1) | 1;
      const uint64_t mh = (pvs & xh) << 1;
      pv[l] = mh | ~(xv | ph);
      mv[l] = ph & xv;
      if (g.lengths[l] == j + 1) job.scores[l] = score[l];
    }
  }
  job.columns = j;
}

// --- Blocked kernel (k > kMaxBandedLaneK): the full-height blocked Myers
// recurrence, tracking the last row D[m][j]. A lane stays open while it
// has columns left, passes the length filter and can still finish within
// k: each remaining column lowers D[m][j] by at most one (the per-pair
// BoundedMyers abort).

// One block step of the blocked Myers recurrence for a single lane — the
// by-reference twin of edit_distance.cc's AdvanceBlock, kept line-for-line
// equivalent so the differential suite pins all tiers to the same scalar
// semantics.
inline int SwarStep(uint64_t& pv, uint64_t& mv, uint64_t eq,
                    uint64_t out_mask, int hin) {
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
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  return hout;
}

void RunSwarBlocked(LaneKernelJob& job) {
  const LaneGroupView& g = *job.group;
  const size_t kb = job.blocks;
  const int64_t k = job.k;
  int64_t score[kLaneWidth];
  for (uint32_t l = 0; l < kLaneWidth; ++l) score[l] = job.scores[l] = job.m;
  uint64_t* pv = job.pv;
  uint64_t* mv = job.mv;
  std::fill(pv, pv + kb * kLaneWidth, ~uint64_t{0});
  std::fill(mv, mv + kb * kLaneWidth, uint64_t{0});
  size_t sym[kLaneWidth];
  uint32_t j = 0;
  for (;; ++j) {
    bool open = false;
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      const int64_t n = g.lengths[l];
      open |= n > j && n - job.m <= k && score[l] - (n - j) <= k;
    }
    if (!open) break;
    ColumnSymbols(g, j, sym);
    int hin[kLaneWidth] = {1, 1, 1, 1};  // top boundary row: +1 per column
    for (size_t b = 0; b < kb; ++b) {
      const uint64_t out_mask =
          b == kb - 1 ? job.last_mask : (uint64_t{1} << 63);
      for (uint32_t l = 0; l < kLaneWidth; ++l) {
        hin[l] = SwarStep(pv[b * kLaneWidth + l], mv[b * kLaneWidth + l],
                          job.peq[(1 + b) * job.symbols + sym[l]], out_mask,
                          hin[l]);
      }
    }
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      score[l] += hin[l];
      if (g.lengths[l] == j + 1) job.scores[l] = score[l];
    }
  }
  job.columns = j;
}

#if SSS_HAVE_AVX2_LANE_KERNEL

// Loads the four lanes' words from one peq word row into one vector (four
// scalar loads — cheaper and more portable across microarchitectures than
// a gather for this access pattern).
__attribute__((always_inline, target("avx2"))) inline __m256i LoadEq(
    const uint64_t* word, const size_t sym[kLaneWidth]) {
  return _mm256_set_epi64x(static_cast<int64_t>(word[sym[3]]),
                           static_cast<int64_t>(word[sym[2]]),
                           static_cast<int64_t>(word[sym[1]]),
                           static_cast<int64_t>(word[sym[0]]));
}

__attribute__((always_inline, target("avx2"))) inline __m256i LoadLengths(
    const LaneGroupView& g) {
  return _mm256_set_epi64x(static_cast<int64_t>(g.lengths[3]),
                           static_cast<int64_t>(g.lengths[2]),
                           static_cast<int64_t>(g.lengths[1]),
                           static_cast<int64_t>(g.lengths[0]));
}

// RunSwarBanded with the four lanes in one __m256i; retires on the same
// column, so the two tiers report identical counters.
__attribute__((target("avx2"))) void RunAvx2Banded(LaneKernelJob& job) {
  const LaneGroupView& g = *job.group;
  const int64_t k = job.k;
  const __m256i all1 = _mm256_set1_epi64x(-1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i bottom = _mm256_set1_epi64x(INT64_MIN);  // bit 63
  const __m256i kv = _mm256_set1_epi64x(k);
  const __m256i len = LoadLengths(g);
  // BandedLaneStart in vector form: score = |d|, diagonal bit d + k.
  const __m256i d = _mm256_sub_epi64(_mm256_set1_epi64x(job.m), len);
  const __m256i negative = _mm256_cmpgt_epi64(zero, d);
  __m256i score =
      _mm256_sub_epi64(_mm256_xor_si256(d, negative), negative);
  const __m256i diag = _mm256_andnot_si256(
      _mm256_cmpgt_epi64(score, kv),
      _mm256_sllv_epi64(one, _mm256_add_epi64(d, kv)));
  __m256i final_d = score;
  __m256i pv =
      _mm256_set1_epi64x(static_cast<int64_t>(~uint64_t{0} << (k + 1)));
  __m256i mv = _mm256_xor_si256(pv, all1);
  __m256i done = zero;  // columns advanced, per lane
  size_t sym[kLaneWidth];
  uint32_t j = 0;
  for (;; ++j) {
    const __m256i open = _mm256_andnot_si256(_mm256_cmpgt_epi64(score, kv),
                                             _mm256_cmpgt_epi64(len, done));
    if (_mm256_testz_si256(open, open)) break;
    ColumnSymbols(g, j, sym);
    const size_t p = BandOffset(j, k);
    const uint64_t* word = job.peq + (p >> 6) * job.symbols;
    const __m256i eq = _mm256_or_si256(
        _mm256_srl_epi64(LoadEq(word, sym),
                         _mm_cvtsi32_si128(static_cast<int>(p & 63))),
        // A shift count of 64 yields zero: the s = 0 case needs no branch.
        _mm256_sll_epi64(LoadEq(word + job.symbols, sym),
                         _mm_cvtsi32_si128(static_cast<int>(64 - (p & 63)))));
    const __m256i pvs = _mm256_or_si256(_mm256_srli_epi64(pv, 1), bottom);
    const __m256i mvs = _mm256_srli_epi64(mv, 1);
    const __m256i xv = _mm256_or_si256(eq, mvs);
    const __m256i xh = _mm256_or_si256(
        _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pvs), pvs),
                         pvs),
        eq);
    // cmpeq yields −1 where the diagonal bit of D0 is clear: score −= −1.
    score = _mm256_sub_epi64(
        score, _mm256_cmpeq_epi64(
                   _mm256_and_si256(_mm256_or_si256(xh, mvs), diag), zero));
    const __m256i ph = _mm256_or_si256(
        _mm256_slli_epi64(
            _mm256_or_si256(mvs,
                            _mm256_xor_si256(_mm256_or_si256(xh, pvs), all1)),
            1),
        one);
    const __m256i mh = _mm256_slli_epi64(_mm256_and_si256(pvs, xh), 1);
    pv = _mm256_or_si256(mh, _mm256_xor_si256(_mm256_or_si256(xv, ph), all1));
    mv = _mm256_and_si256(ph, xv);
    done = _mm256_add_epi64(done, one);
    final_d = _mm256_blendv_epi8(final_d, score, _mm256_cmpeq_epi64(len, done));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(job.scores), final_d);
  job.columns = j;
}

// One block step for all four lanes at once: SwarStep with the horizontal
// carries hin/hout held as a (+1 mask, −1 mask) pair of per-lane all-ones
// masks (at most one set per lane, mirroring hout ∈ {-1, 0, +1}).
__attribute__((always_inline, target("avx2"))) inline void Avx2Step(
    __m256i& pv, __m256i& mv, __m256i eq, __m256i out_mask, __m256i& hin_p,
    __m256i& hin_n) {
  const __m256i all1 = _mm256_set1_epi64x(-1);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i xv = _mm256_or_si256(eq, mv);
  eq = _mm256_or_si256(eq, _mm256_and_si256(hin_n, one));
  const __m256i sum = _mm256_add_epi64(_mm256_and_si256(eq, pv), pv);
  const __m256i xh = _mm256_or_si256(_mm256_xor_si256(sum, pv), eq);
  __m256i ph =
      _mm256_or_si256(mv, _mm256_xor_si256(_mm256_or_si256(xh, pv), all1));
  __m256i mh = _mm256_and_si256(pv, xh);
  // out_mask is a single bit, so (x & mask) == mask iff the bit is set.
  const __m256i ph_hit =
      _mm256_cmpeq_epi64(_mm256_and_si256(ph, out_mask), out_mask);
  const __m256i mh_hit =
      _mm256_cmpeq_epi64(_mm256_and_si256(mh, out_mask), out_mask);
  ph = _mm256_slli_epi64(ph, 1);
  mh = _mm256_slli_epi64(mh, 1);
  mh = _mm256_or_si256(mh, _mm256_and_si256(hin_n, one));
  ph = _mm256_or_si256(ph, _mm256_and_si256(hin_p, one));
  pv = _mm256_or_si256(mh,
                       _mm256_xor_si256(_mm256_or_si256(xv, ph), all1));
  mv = _mm256_and_si256(ph, xv);
  hin_p = _mm256_andnot_si256(mh_hit, ph_hit);  // mh wins, as in SwarStep
  hin_n = mh_hit;
}

// RunSwarBlocked with the four lanes in one __m256i per block; the block
// state spills through the job scratch.
__attribute__((target("avx2"))) void RunAvx2Blocked(LaneKernelJob& job) {
  const LaneGroupView& g = *job.group;
  const size_t kb = job.blocks;
  const __m256i all1 = _mm256_set1_epi64x(-1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i kv = _mm256_set1_epi64x(job.k);
  const __m256i last_mask =
      _mm256_set1_epi64x(static_cast<int64_t>(job.last_mask));
  const __m256i top = _mm256_set1_epi64x(INT64_MIN);  // bit 63
  const __m256i len = LoadLengths(g);
  const __m256i too_long =
      _mm256_cmpgt_epi64(_mm256_sub_epi64(len, _mm256_set1_epi64x(job.m)), kv);
  __m256i score = _mm256_set1_epi64x(job.m);
  __m256i final_d = score;  // ed(query, ε) = m; overwritten at each lane end
  uint64_t* pv = job.pv;
  uint64_t* mv = job.mv;
  for (size_t b = 0; b < kb; ++b) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pv + b * kLaneWidth), all1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mv + b * kLaneWidth), zero);
  }
  __m256i done = zero;  // columns advanced, per lane
  size_t sym[kLaneWidth];
  uint32_t j = 0;
  for (;; ++j) {
    // Open: columns left, length filter passed, score − (n − j) <= k.
    const __m256i hopeless = _mm256_or_si256(
        too_long, _mm256_cmpgt_epi64(
                      _mm256_sub_epi64(_mm256_add_epi64(score, done), len),
                      kv));
    const __m256i open =
        _mm256_andnot_si256(hopeless, _mm256_cmpgt_epi64(len, done));
    if (_mm256_testz_si256(open, open)) break;
    ColumnSymbols(g, j, sym);
    __m256i hp = all1, hn = zero;  // top boundary row: +1 into block 0
    for (size_t b = 0; b < kb; ++b) {
      __m256i pvb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(pv + b * kLaneWidth));
      __m256i mvb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(mv + b * kLaneWidth));
      Avx2Step(pvb, mvb, LoadEq(job.peq + (1 + b) * job.symbols, sym),
               b == kb - 1 ? last_mask : top, hp, hn);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pv + b * kLaneWidth),
                          pvb);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(mv + b * kLaneWidth),
                          mvb);
    }
    score = _mm256_sub_epi64(score, hp);  // hp lanes are −1 masks: −= −1
    score = _mm256_add_epi64(score, hn);
    done = _mm256_add_epi64(done, one);
    final_d = _mm256_blendv_epi8(final_d, score, _mm256_cmpeq_epi64(len, done));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(job.scores), final_d);
  job.columns = j;
}

#endif  // SSS_HAVE_AVX2_LANE_KERNEL

}  // namespace

void LaneVerifier::SetQuery(std::string_view query) {
  if (query_ == query) return;  // tables already describe this pattern
  query_.assign(query);
  blocks_ = query.empty() ? 0 : (query.size() + 63) / 64;
  last_mask_ = query.empty() ? 0 : uint64_t{1} << ((query.size() - 1) % 64);
  byte_peq_ready_ = false;
  packed2_peq_ready_ = false;
}

const uint64_t* LaneVerifier::PeqFor(const LaneGroupView& group) {
  // Word-major rows, [word][symbol], so one column's lookups share a row:
  // word 0 is all ones (the banded kernel's virtual rows above row 1),
  // words 1..blocks_ hold the pattern bits, and a final zero word lets a
  // band window read one word past the pattern.
  const auto build = [&](std::vector<uint64_t>* peq, size_t symbols) {
    peq->assign((blocks_ + 2) * symbols, 0);
    std::fill(peq->begin(), peq->begin() + symbols, ~uint64_t{0});
  };
  if (group.packed2) {
    if (!packed2_peq_ready_) {
      build(&packed2_peq_, Dna2Codec::kAlphabetSize);
      for (size_t i = 0; i < query_.size(); ++i) {
        const uint8_t code = Dna2Codec::Encode(query_[i]);
        // Query symbols outside {A,C,G,T} match no candidate code — the
        // same verdict raw-byte comparison gives, since packed2 groups
        // contain only pure-ACGT candidates.
        if (code == Dna2Codec::kInvalidCode) continue;
        packed2_peq_[(1 + i / 64) * Dna2Codec::kAlphabetSize + code] |=
            uint64_t{1} << (i % 64);
      }
      packed2_peq_ready_ = true;
    }
    return packed2_peq_.data();
  }
  if (!byte_peq_ready_) {
    build(&byte_peq_, 256);
    for (size_t i = 0; i < query_.size(); ++i) {
      byte_peq_[(1 + i / 64) * 256 + static_cast<unsigned char>(query_[i])] |=
          uint64_t{1} << (i % 64);
    }
    byte_peq_ready_ = true;
  }
  return byte_peq_.data();
}

void LaneVerifier::RunScalar(const LaneGroupView& g, int k,
                             int out[kLaneWidth]) {
  // The scalar tier is the per-pair reference run through the lane layout:
  // materialize each lane's text and ask BoundedMyers. The differential
  // suite uses it to pin the wide tiers to the scalar kernel's verdicts.
  for (uint32_t l = 0; l < kLaneWidth; ++l) {
    const uint32_t len = g.lengths[l];
    lane_text_.resize(len);
    if (g.packed2) {
      for (uint32_t j = 0; j < len; ++j) {
        lane_text_[j] =
            Dna2Codec::Decode((g.data[j] >> (2 * l)) & 3u);
      }
    } else {
      for (uint32_t j = 0; j < len; ++j) {
        lane_text_[j] =
            static_cast<char>(g.data[static_cast<size_t>(j) * kLaneWidth + l]);
      }
    }
    out[l] = BoundedMyers(query_, lane_text_, k, &scalar_ws_);
  }
}

uint32_t LaneVerifier::VerifyGroup(const LaneGroupView& group, int k,
                                   KernelTier tier, int out[kLaneWidth]) {
  SSS_DCHECK(k >= 0);
  if (query_.empty()) {
    // ed(ε, y) = |y|, reported exactly when <= k, else k+1 — what
    // BoundedMyers returns through its length filter.
    for (uint32_t l = 0; l < kLaneWidth; ++l) {
      out[l] = group.lengths[l] <= static_cast<uint32_t>(k)
                   ? static_cast<int>(group.lengths[l])
                   : k + 1;
    }
    return 0;
  }
  if (tier == KernelTier::kScalar) {
    RunScalar(group, k, out);
    return group.num_cols;
  }
  LaneKernelJob job;
  job.peq = PeqFor(group);
  job.symbols = group.packed2 ? Dna2Codec::kAlphabetSize : 256;
  job.blocks = blocks_;
  job.last_mask = last_mask_;
  job.m = static_cast<int64_t>(query_.size());
  job.k = k;
  job.group = &group;
  const bool banded = k <= kMaxBandedLaneK;
  if (!banded) {
    pv_.resize(blocks_ * kLaneWidth);
    mv_.resize(blocks_ * kLaneWidth);
    job.pv = pv_.data();
    job.mv = mv_.data();
  }
#if SSS_HAVE_AVX2_LANE_KERNEL
  // The CPUID re-check makes a stray kAvx2 request on non-AVX2 hardware
  // degrade to SWAR instead of faulting (ResolveKernelTier already clamps;
  // this guards direct callers).
  if (tier == KernelTier::kAvx2 && cpu_has_avx2_) {
    banded ? RunAvx2Banded(job) : RunAvx2Blocked(job);
  } else {
    banded ? RunSwarBanded(job) : RunSwarBlocked(job);
  }
#else
  (void)tier;
  banded ? RunSwarBanded(job) : RunSwarBlocked(job);
#endif
  // Uniform clamp: a lane the group retired before its last column was
  // proven beyond k; a lane that reached it holds a value that is exact
  // when <= k and > k otherwise. Both collapse to k+1 beyond k, exactly
  // like the per-pair kernel's reject paths.
  for (uint32_t l = 0; l < kLaneWidth; ++l) {
    const bool within =
        (group.lengths[l] <= job.columns) & (job.scores[l] <= k);
    out[l] = within ? static_cast<int>(job.scores[l]) : k + 1;
  }
  return job.columns;
}

Status LaneVerifyRange(const LanePool& pool, const Query& query,
                       const SearchContext& ctx, KernelTier tier,
                       uint32_t begin, uint32_t end, MatchList* out) {
  SSS_DCHECK(!query.text.empty());
  thread_local LaneVerifier verifier;
  verifier.SetQuery(query.text);
  const int k = query.max_distance;
  const int64_t qlen = static_cast<int64_t>(query.text.size());
  const int64_t wlo = qlen - k;
  const int64_t whi = qlen + k;

  StatsScope stats(ctx.stats);
  StopChecker stopper(ctx);
  const size_t out_before = out->size();
  int dist[kLaneWidth];

  for (const LanePool::Bucket& bucket : pool.buckets()) {
    // Ids are ascending within a bucket, so an id shard is a contiguous
    // slot span. A group straddling a shard boundary is re-verified by the
    // neighbouring shard, but each candidate's verdict is consumed exactly
    // once — that keeps the funnel counters strategy-independent.
    const uint32_t* ids = bucket.ids.data();
    const uint32_t i0 = static_cast<uint32_t>(
        std::lower_bound(ids, ids + bucket.num_candidates, begin) - ids);
    const uint32_t i1 = static_cast<uint32_t>(
        std::lower_bound(ids, ids + bucket.num_candidates, end) - ids);
    if (i0 >= i1) continue;
    // Bucket-level length filter: the half-open window [min_len, max_len)
    // either misses [wlo, whi] for every member (wholesale reject — the
    // very verdict LengthFilterPasses would return per pair) or the
    // members are checked individually below.
    if (static_cast<int64_t>(bucket.min_len) > whi ||
        static_cast<int64_t>(bucket.max_len) <= wlo) {
      stats->length_filter_rejects += i1 - i0;
      continue;
    }
    for (uint32_t g = i0 / kLaneWidth; g * kLaneWidth < i1; ++g) {
      if (SSS_PREDICT_FALSE(stopper.ShouldStop())) {
        out->clear();
        return ctx.StopStatus();
      }
      const uint32_t lane_lo = std::max(i0, g * kLaneWidth);
      const uint32_t lane_hi = std::min(i1, (g + 1) * kLaneWidth);
      bool pass[kLaneWidth] = {false, false, false, false};
      uint32_t live = 0;
      for (uint32_t slot = lane_lo; slot < lane_hi; ++slot) {
        if (LengthFilterPasses(query.text.size(), bucket.lengths[slot], k)) {
          pass[slot - g * kLaneWidth] = true;
          ++live;
        } else {
          ++stats->length_filter_rejects;
        }
      }
      if (live == 0) continue;
      // The group's retire column depends on the group and the query
      // only, never on this slice, so both counters are the same under
      // every execution strategy.
      const uint32_t columns =
          verifier.VerifyGroup(pool.Group(bucket, g), k, tier, dist);
      stats->simd_lane_columns += uint64_t{columns} * live;
      for (uint32_t slot = lane_lo; slot < lane_hi; ++slot) {
        const uint32_t l = slot - g * kLaneWidth;
        if (!pass[l]) continue;
        stats->dp_early_aborts += bucket.lengths[slot] > columns;
        if (dist[l] <= k) out->push_back(ids[slot]);
      }
    }
  }

  stats->candidates_considered += end - begin;
  const uint64_t verified = (end - begin) - stats->length_filter_rejects;
  stats->verify_calls += verified;
  stats->simd_lanes_verified += verified;
  stats->matches_found += out->size() - out_before;
  // Matches were collected bucket-major; the contract is ascending ids.
  std::sort(out->begin() + static_cast<ptrdiff_t>(out_before), out->end());
  return Status::OK();
}

}  // namespace sss
