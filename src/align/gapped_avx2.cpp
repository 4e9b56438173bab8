// AVX2 tier of the step-3 gapped kernels. Same TU discipline as
// ungapped_avx2.cpp: per-function target("avx2") attributes so the rest
// of the library builds for the baseline ISA; align/cpu_features.hpp
// gates entry at runtime.
//
// Both kernels run rows of the Gotoh recurrence in 16 x 16-bit biased
// unsigned lanes (see gapped_simd.hpp for the exactness argument). The
// intra-row E dependency is resolved with the lazy-E decayed prefix-max:
// within a 16-lane block by log-step shift-maxes, across blocks by a
// carry from lane 15 (a scalar in the banded kernel, a broadcast vector
// in the X-drop kernel). The X-drop kernel prunes and tracks its best
// in the same block pass. Buffers are +1-offset (index 0 is a permanent
// sentinel) and over-allocated so unaligned block loads and stores
// never leave the allocation. Lanes past the live range compute junk
// from real neighbouring cells; both kernels mask it (out of the banded
// best; to the sentinel before the X-drop prune, best and store). One
// position past each row's live range is cleared so the next row's
// loads see sentinels instead of stale cells from two rows ago.
#include "align/gapped_simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

namespace psc::align {

bool gapped_avx2_available() noexcept {
  const CpuFeatures& features = cpu_features();
  return features.avx2 && features.ssse3 && features.sse41;
}

namespace {

constexpr std::uint32_t kBias = 32768;
constexpr int kGuardBest = 32767 - 256;

inline std::uint32_t sub_sat32(std::uint32_t v, std::uint32_t c) {
  return v > c ? v - c : 0;
}

/// Every 16-bit lane moved up one position; lane 0 takes lane 15 of
/// `below` (a zero `below` fills the domain's -inf sentinel).
__attribute__((target("avx2"))) inline __m256i shift_in(__m256i x,
                                                        __m256i below) {
  return _mm256_alignr_epi8(x, _mm256_permute2x128_si256(x, below, 0x03), 14);
}

/// 32-entry bias-128 row lookup for 16 residues: shuffle both 16-byte
/// halves, select by residue >= 16, widen unsigned to 16-bit.
__attribute__((target("avx2"))) inline __m256i lookup_row16(
    const std::uint8_t* row, const std::uint8_t* residues) {
  const __m128i resid =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(residues));
  const __m128i row_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  const __m128i row_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16));
  const __m128i hi_sel = _mm_cmpgt_epi8(resid, _mm_set1_epi8(15));
  const __m128i vals8 = _mm_blendv_epi8(_mm_shuffle_epi8(row_lo, resid),
                                        _mm_shuffle_epi8(row_hi, resid), hi_sel);
  return _mm256_cvtepu8_epi16(vals8);
}

struct GapVectors {
  __m256i go, open, ge1, ge2, ge4, bias128, ramp1, ramp_high;
  std::uint32_t go_s, ge_s;

  __attribute__((target("avx2"))) explicit GapVectors(const GapParams& params) {
    go_s = static_cast<std::uint32_t>(params.open + params.extend);
    ge_s = static_cast<std::uint32_t>(params.extend);
    go = _mm256_set1_epi16(static_cast<short>(go_s));
    ge1 = _mm256_set1_epi16(static_cast<short>(ge_s));
    ge2 = _mm256_set1_epi16(static_cast<short>(2 * ge_s));
    ge4 = _mm256_set1_epi16(static_cast<short>(4 * ge_s));
    bias128 = _mm256_set1_epi16(128);
    open = _mm256_set1_epi16(static_cast<short>(params.open));
    // ramp1: lane l decays by (l + 1) * extend; ramp_high: lanes 8..15 by
    // (l - 7) * extend (the low half is never read).
    ramp1 = _mm256_mullo_epi16(_mm256_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                 10, 11, 12, 13, 14, 15, 16),
                               ge1);
    ramp_high = _mm256_mullo_epi16(
        _mm256_setr_epi16(0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8), ge1);
  }
};

/// Low half's lane 7 copied into every lane of the high half; the low
/// half reads as the sentinel.
__attribute__((target("avx2"))) inline __m256i low_top_to_high(__m256i x) {
  return _mm256_shuffle_epi8(_mm256_permute2x128_si256(x, x, 0x08),
                             _mm256_set1_epi16(0x0F0E));
}

/// Decayed in-block prefix-max: lane l becomes max_{k<=l}(t(k) -
/// (l-k)*extend). Log-step shift-maxes inside each 128-bit half (byte
/// shifts, one cycle each), then one cross-half step from lane 7.
__attribute__((target("avx2"))) inline __m256i decayed_prefix_max(
    __m256i t, const GapVectors& gv) {
  t = _mm256_max_epu16(t, _mm256_subs_epu16(_mm256_slli_si256(t, 2), gv.ge1));
  t = _mm256_max_epu16(t, _mm256_subs_epu16(_mm256_slli_si256(t, 4), gv.ge2));
  t = _mm256_max_epu16(t, _mm256_subs_epu16(_mm256_slli_si256(t, 8), gv.ge4));
  return _mm256_max_epu16(
      t, _mm256_subs_epu16(low_top_to_high(t), gv.ramp_high));
}

/// E lanes for one block from the candidate-only sources `c` (lane l =
/// C(j0+l)) and the previous block's lane-15 carries: the decayed
/// prefix-max E(j0+l) = max_{k<=l}(t0(k) - (l-k)*extend) with t0(0) =
/// E(j0) and t0(l>=1) = C(j0+l-1) - (open+extend).
__attribute__((target("avx2"))) inline __m256i lazy_e_block(
    __m256i c, std::uint32_t carry_c, std::uint32_t carry_e,
    const GapVectors& gv) {
  __m256i t = shift_in(_mm256_subs_epu16(c, gv.go), _mm256_setzero_si256());
  const std::uint32_t e0 =
      std::max(sub_sat32(carry_c, gv.go_s), sub_sat32(carry_e, gv.ge_s));
  t = _mm256_insert_epi16(t, static_cast<short>(e0), 0);
  return decayed_prefix_max(t, gv);
}

__attribute__((target("avx2"))) inline std::uint32_t horizontal_max_epu16(
    __m256i v) {
  __m128i m = _mm_max_epu16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
  return static_cast<std::uint32_t>(_mm_extract_epi16(m, 0));
}

/// Plain in-block prefix-max: lane l becomes max_{k<=l} x(k).
__attribute__((target("avx2"))) inline __m256i prefix_max(__m256i x) {
  x = _mm256_max_epu16(x, _mm256_slli_si256(x, 2));
  x = _mm256_max_epu16(x, _mm256_slli_si256(x, 4));
  x = _mm256_max_epu16(x, _mm256_slli_si256(x, 8));
  return _mm256_max_epu16(x, low_top_to_high(x));
}

/// Lane 15 copied to every lane.
__attribute__((target("avx2"))) inline __m256i broadcast_lane15(__m256i x) {
  return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(x, 0xFF),
                             _mm256_set1_epi16(0x0F0E));
}

constexpr std::size_t kNoColumn = ~std::size_t{0};

/// First / last 16-bit lane set in a nonzero _mm256_movemask_epi8 result.
inline std::size_t first_lane(std::uint32_t bits) {
  return static_cast<std::size_t>(std::countr_zero(bits)) / 2;
}
inline std::size_t last_lane(std::uint32_t bits) {
  return static_cast<std::size_t>(31 - std::countl_zero(bits)) / 2;
}

/// One X-drop half extension as a row stepper: step() runs one DP row,
/// so a caller can advance several independent halves in turn. Rows use
/// the scalar kernel's band rule (row i spans [lo, min(hi + 1, m)] of
/// the previous row's live range) and stop at the first all-pruned row,
/// the last row, or the overflow guard.
class XdropRows {
 public:
  __attribute__((target("avx2"))) XdropRows(std::span<const std::uint8_t> a,
                                            std::span<const std::uint8_t> b,
                                            const GappedSimdMatrix& rows,
                                            const GapParams& params,
                                            const GapVectors& gv)
      : a_(a),
        m_(b.size()),
        rows_(rows),
        gv_(gv),
        x_(static_cast<std::uint32_t>(params.x_drop)),
        running_(!a.empty() && !b.empty()) {
    if (!running_) return;
    // +1-offset buffers: index j + 1 holds logical column j, index 0 is
    // a permanent sentinel; padded so 16-lane loads/stores at the last
    // live block stay inside the allocation.
    const std::size_t cap = m_ + 2 + 32;
    cells_.assign(4 * cap, 0);
    h_prev_ = cells_.data();
    f_prev_ = h_prev_ + cap;
    h_cur_ = f_prev_ + cap;
    f_cur_ = h_cur_ + cap;
    bbuf_.assign(m_ + 1 + 32, 0);
    std::copy(b.begin(), b.end(), bbuf_.begin() + 1);

    // Row 0 (scalar, one row): store-then-break like the reference.
    h_prev_[1] = kBias;
    std::uint32_t e = 0;
    for (std::size_t j = 1; j <= m_; ++j) {
      e = std::max(sub_sat32(h_prev_[j], gv_.go_s), sub_sat32(e, gv_.ge_s));
      h_prev_[j + 1] = static_cast<std::uint16_t>(e);
      if (e < kBias - x_) break;
      hi_ = j;
    }
  }

  bool running() const noexcept { return running_; }

  /// nullopt when the overflow guard tripped.
  std::optional<HalfExtension> result() const {
    if (overflow_) return std::nullopt;
    return HalfExtension{best_, best_i_, best_j_};
  }

  /// Row i_ + 1: candidates, prune and best update fused per block. A
  /// cell is pruned exactly when it is below P - x_drop, P being the
  /// inclusive prefix-max of the row's candidates seeded with the
  /// running best: a cell that beats the running best is never pruned,
  /// and a pruned cell never raises it, so P at a cell is the scalar
  /// scan's running best there (see gapped_simd.hpp).
  __attribute__((target("avx2"))) void step() {
    const std::size_t i = ++i_;
    const std::size_t row_lo = lo_;
    const std::size_t row_hi = std::min(hi_ + 1, m_);
    const std::uint8_t* row = rows_.row(a_[i - 1]);
    const GapVectors& gv = gv_;
    const __m256i xv = _mm256_set1_epi16(static_cast<short>(x_));
    const __m256i lane_idx =
        _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const std::uint32_t best_biased = kBias + static_cast<std::uint32_t>(best_);

    // Cross-block carries stay in registers: `w` holds the previous
    // block's E sources (lane 15 + extend = E of this block's first
    // column), `run` the running best in every lane, `above` the
    // previous block's H sources (lane 15 = this block's first diagonal).
    __m256i w = _mm256_setzero_si256();
    __m256i run = _mm256_set1_epi16(static_cast<short>(best_biased));
    __m256i above = _mm256_setzero_si256();
    std::size_t new_lo = kNoColumn, new_hi = 0;
    for (std::size_t j0 = row_lo; j0 <= row_hi; j0 += 16) {
      // Diagonal sources shifted in from `above` rather than loaded one
      // cell to the left: that load would straddle two of the previous
      // row's stores and miss store forwarding. Column row_lo - 1 of the
      // previous row is always a sentinel (pruned, or cleared below).
      const __m256i habove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_prev_ + j0 + 1));
      const __m256i hdiag = shift_in(habove, above);
      above = habove;
      const __m256i fabove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(f_prev_ + j0 + 1));
      const __m256i fv = _mm256_max_epu16(_mm256_subs_epu16(habove, gv.go),
                                          _mm256_subs_epu16(fabove, gv.ge1));
      const __m256i vals = lookup_row16(row, bbuf_.data() + j0);
      const __m256i diag = _mm256_subs_epu16(_mm256_adds_epu16(hdiag, vals),
                                             gv.bias128);
      const __m256i c = _mm256_max_epu16(fv, diag);
      // Lazy E in inclusive form: with u(l) = max_{k<=l}(C(k) - open -
      // (l-k)*extend), E(l) = max(u(l-1) - extend, E(j0) - l*extend) and
      // u(l) <= max(C(l), E(l)), so max(C, E) = max(C, u, E(j0) ramp)
      // needs no lane shift. w's lane 15 carries E(j0 + 16) + extend.
      w = _mm256_max_epu16(
          decayed_prefix_max(_mm256_subs_epu16(c, gv.open), gv),
          _mm256_subs_epu16(broadcast_lane15(w), gv.ramp1));
      // Lanes past row_hi read real cells as diagonal sources; mask them
      // to the sentinel so they are neither live nor counted in P.
      const __m256i in_row = _mm256_cmpgt_epi16(
          _mm256_set1_epi16(
              static_cast<short>(std::min<std::size_t>(row_hi - j0 + 1, 16))),
          lane_idx);
      const __m256i cand = _mm256_and_si256(_mm256_max_epu16(c, w), in_row);
      run = _mm256_max_epu16(prefix_max(cand), run);
      const __m256i threshold = _mm256_subs_epu16(run, xv);
      const __m256i live =
          _mm256_cmpeq_epi16(_mm256_max_epu16(cand, threshold), cand);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(f_cur_ + j0 + 1), fv);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h_cur_ + j0 + 1),
                          _mm256_and_si256(cand, live));
      run = broadcast_lane15(run);
      const auto live_bits =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(live));
      if (live_bits != 0) {
        if (new_lo == kNoColumn) new_lo = j0 + first_lane(live_bits);
        new_hi = j0 + last_lane(live_bits);
      }
    }
    // One position past the live range (the next row reads at most that
    // far) and one before it (diagonal source of the next row's first
    // column) must read as sentinels, not stale cells.
    h_cur_[row_hi + 2] = 0;
    f_cur_[row_hi + 2] = 0;
    h_cur_[row_lo] = 0;
    f_cur_[row_lo] = 0;
    if (new_lo == kNoColumn) {  // every cell pruned
      running_ = false;
      return;
    }
    const auto row_best = static_cast<std::uint32_t>(
        static_cast<std::uint16_t>(_mm256_extract_epi16(run, 0)));
    if (row_best > best_biased) {
      // The scalar scan's last strict improvement is the first cell equal
      // to the row's max; that cell is live, so it is stored as is.
      const __m256i target = _mm256_set1_epi16(static_cast<short>(row_best));
      for (std::size_t j0 = row_lo; j0 <= row_hi; j0 += 16) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(h_cur_ + j0 + 1));
        const auto hit_bits = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi16(h, target)));
        if (hit_bits != 0) {
          best_j_ = j0 + first_lane(hit_bits);
          break;
        }
      }
      best_ = static_cast<int>(row_best - kBias);
      best_i_ = i;
      if (best_ >= kGuardBest) {
        overflow_ = true;
        running_ = false;
        return;
      }
    }
    lo_ = new_lo;
    hi_ = new_hi;
    std::swap(h_prev_, h_cur_);
    std::swap(f_prev_, f_cur_);
    if (i == a_.size()) running_ = false;
  }

 private:
  std::span<const std::uint8_t> a_;
  std::size_t m_;
  const GappedSimdMatrix& rows_;
  const GapVectors& gv_;
  std::uint32_t x_;
  std::vector<std::uint16_t> cells_;
  std::vector<std::uint8_t> bbuf_;
  std::uint16_t* h_prev_ = nullptr;
  std::uint16_t* f_prev_ = nullptr;
  std::uint16_t* h_cur_ = nullptr;
  std::uint16_t* f_cur_ = nullptr;
  std::size_t i_ = 0;
  std::size_t lo_ = 0, hi_ = 0;
  int best_ = 0;
  std::size_t best_i_ = 0, best_j_ = 0;
  bool running_;
  bool overflow_ = false;
};

}  // namespace

__attribute__((target("avx2"))) std::optional<HalfExtension>
xdrop_gapped_half_avx2(std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b,
                       const GappedSimdMatrix& rows, const GapParams& params) {
  const GapVectors gv(params);
  XdropRows half(a, b, rows, params, gv);
  while (half.running()) half.step();
  return half.result();
}

__attribute__((target("avx2")))
std::array<std::optional<HalfExtension>, 2> xdrop_gapped_halves_avx2(
    std::span<const std::uint8_t> a0, std::span<const std::uint8_t> b0,
    std::span<const std::uint8_t> a1, std::span<const std::uint8_t> b1,
    const GappedSimdMatrix& rows, const GapParams& params) {
  const GapVectors gv(params);
  XdropRows first(a0, b0, rows, params, gv);
  XdropRows second(a1, b1, rows, params, gv);
  // One row of each in turn: the halves share no data, so the core
  // overlaps one half's carry and store-forwarding latency with the
  // other's arithmetic.
  while (first.running() && second.running()) {
    first.step();
    second.step();
  }
  while (first.running()) first.step();
  while (second.running()) second.step();
  return {first.result(), second.result()};
}

__attribute__((target("avx2"))) std::optional<int> banded_window_score_avx2(
    std::span<const std::uint8_t> s0, std::span<const std::uint8_t> s1,
    std::size_t band, const GapParams& params, const GappedSimdMatrix& rows) {
  const std::size_t n = std::min(s0.size(), s1.size());
  if (n == 0) return 0;

  const GapVectors gv(params);
  const __m256i bias_v = _mm256_set1_epi16(static_cast<short>(kBias));
  const __m256i lane_idx =
      _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

  const std::size_t cap = n + 2 + 32;
  std::vector<std::uint16_t> h_prev(cap, 0), f_prev(cap, 0);
  std::vector<std::uint16_t> h_cur(cap, 0), f_cur(cap, 0);
  std::vector<std::uint8_t> bbuf(n + 1 + 32, 0);
  std::copy(s1.begin(), s1.begin() + static_cast<std::ptrdiff_t>(n),
            bbuf.begin() + 1);

  for (std::size_t j = 0; j <= std::min(band, n); ++j) {
    h_prev[j + 1] = kBias;
  }

  __m256i vbest = bias_v;
  std::uint32_t best = kBias;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n, i + band);
    const std::uint8_t* row = rows.row(s0[i - 1]);

    std::uint32_t carry_c = 0, carry_e = 0;
    for (std::size_t j0 = lo; j0 <= hi; j0 += 16) {
      const __m256i hdiag = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_prev.data() + j0));
      const __m256i habove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_prev.data() + j0 + 1));
      const __m256i fabove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(f_prev.data() + j0 + 1));
      const __m256i fv = _mm256_max_epu16(_mm256_subs_epu16(habove, gv.go),
                                          _mm256_subs_epu16(fabove, gv.ge1));
      const __m256i vals = lookup_row16(row, bbuf.data() + j0);
      const __m256i diag = _mm256_subs_epu16(_mm256_adds_epu16(hdiag, vals),
                                             gv.bias128);
      // Local-alignment clamp folded into the candidate: C = max(F,
      // diag, 0); the lazy-E source is then exactly the stored cell.
      const __m256i c =
          _mm256_max_epu16(_mm256_max_epu16(fv, diag), bias_v);
      const __m256i ev = lazy_e_block(c, carry_c, carry_e, gv);
      const __m256i stored = _mm256_max_epu16(c, ev);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(f_cur.data() + j0 + 1),
                          fv);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h_cur.data() + j0 + 1),
                          stored);
      const std::size_t valid = hi - j0 + 1;
      if (valid >= 16) {
        vbest = _mm256_max_epu16(vbest, stored);
      } else {
        // Junk lanes past the band can look real (their diagonal source
        // may be a live cell); mask them out of the running best.
        const __m256i mask = _mm256_cmpgt_epi16(
            _mm256_set1_epi16(static_cast<short>(valid)), lane_idx);
        vbest = _mm256_max_epu16(vbest, _mm256_and_si256(stored, mask));
      }
      carry_c = static_cast<std::uint32_t>(
          static_cast<std::uint16_t>(_mm256_extract_epi16(c, 15)));
      carry_e = static_cast<std::uint32_t>(
          static_cast<std::uint16_t>(_mm256_extract_epi16(ev, 15)));
    }
    // Clear one block past the band edge so the next row's loads (which
    // reach one block past its own edge) see sentinels, not junk stores.
    for (std::size_t t = hi + 1; t <= hi + 16; ++t) {
      h_cur[t + 1] = 0;
      f_cur[t + 1] = 0;
    }
    best = horizontal_max_epu16(vbest);
    if (static_cast<int>(best - kBias) >= kGuardBest) return std::nullopt;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return static_cast<int>(best - kBias);
}

}  // namespace psc::align

#endif  // x86 && GNUC
