// AVX2 tier of the step-3 gapped kernels. Same TU discipline as
// ungapped_avx2.cpp: per-function target("avx2") attributes so the rest
// of the library builds for the baseline ISA; align/cpu_features.hpp
// gates entry at runtime.
//
// The X-drop halves run rows of the Gotoh recurrence in 32 x 8-bit
// lanes of the relative domain, the banded kernel in 16 x 16-bit biased
// unsigned lanes (see gapped_simd.hpp for both exactness arguments).
// The intra-row E dependency is resolved with the lazy-E decayed
// prefix-max: within a block by log-step shift-maxes, across blocks by a
// carry from the top lane (a scalar in the banded kernel, a broadcast
// vector in the X-drop kernel). Buffers are +1-offset (in the banded
// kernel index 0 is a permanent sentinel) and over-allocated so
// unaligned block loads and stores never leave the allocation. Lanes
// past the live range compute junk from real neighbouring cells; both
// kernels mask it (out of the banded best; to the sentinel before the
// X-drop prune and store). One
// position past each row's range is cleared so the next row's loads see
// sentinels instead of stale cells from two rows ago (or, in the X-drop
// kernel's reused scratch, from an earlier extension).
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
  __m256i go, ge1, ge2, ge4, bias128, ramp_high;
  std::uint32_t go_s, ge_s;

  __attribute__((target("avx2"))) explicit GapVectors(const GapParams& params) {
    go_s = static_cast<std::uint32_t>(params.open + params.extend);
    ge_s = static_cast<std::uint32_t>(params.extend);
    go = _mm256_set1_epi16(static_cast<short>(go_s));
    ge1 = _mm256_set1_epi16(static_cast<short>(ge_s));
    ge2 = _mm256_set1_epi16(static_cast<short>(2 * ge_s));
    ge4 = _mm256_set1_epi16(static_cast<short>(4 * ge_s));
    bias128 = _mm256_set1_epi16(128);
    // ramp_high: lanes 8..15 decay by (l - 7) * extend (the low half is
    // never read).
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

// ---- X-drop halves: 32 x 8-bit lanes, relative domain ------------------

constexpr std::size_t kNoColumn = ~std::size_t{0};

/// Slack past the last column of every DP row and of the subject codes:
/// a 32-lane load or store starting at any column in range stays inside.
constexpr std::size_t kRowSlack = 64;

/// 32 all-ones bytes, then 32 zero bytes: a load at kTailMask + 32 - n
/// keeps the first n lanes of a block (the ones still inside the row).
constexpr std::array<std::uint8_t, 64> kTailMask = [] {
  std::array<std::uint8_t, 64> mask{};
  for (std::size_t l = 0; l < 32; ++l) mask[l] = 0xFF;
  return mask;
}();

inline std::uint8_t sat_u8(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

/// Subject residue r as a two-shuffle lookup code: min(r, 31) + 0x70
/// keeps r's low four bits and has bit 7 clear exactly when r < 16, and
/// the code with bit 7 flipped has it clear exactly when r >= 16, so
/// pshufb on the row's low half with the code and on its high half with
/// the flipped code zeroes all but the right entry. Residues past 31
/// read column 31, which clamps to X like score() does.
inline std::uint8_t lookup_code(std::uint8_t r) {
  return static_cast<std::uint8_t>(std::min<std::uint8_t>(r, 31) + 0x70);
}

/// Per-extension byte constants. Gap costs and their lane decays clamp
/// at 255: every stored value is at most 127, so a clamped cost
/// saturates to the sentinel exactly as the full cost would.
struct XdropVectors {
  __m256i go, open, ge1, ge2, ge4, ge8, ramp1, ramp_high, bias128, flip;
  __m256i x, margin, best;
  std::uint8_t go_s, ge_s, margin_s, best_s;

  __attribute__((target("avx2"))) XdropVectors(const GapParams& params,
                                               const GappedSimdMatrix& rows) {
    const int ge = params.extend;
    go_s = sat_u8(params.open + ge);
    ge_s = sat_u8(ge);
    margin_s = static_cast<std::uint8_t>(rows.max_gain() + 1);
    best_s = static_cast<std::uint8_t>(params.x_drop + margin_s);
    go = _mm256_set1_epi8(static_cast<char>(go_s));
    open = _mm256_set1_epi8(static_cast<char>(sat_u8(params.open)));
    ge1 = _mm256_set1_epi8(static_cast<char>(ge_s));
    ge2 = _mm256_set1_epi8(static_cast<char>(sat_u8(2 * ge)));
    ge4 = _mm256_set1_epi8(static_cast<char>(sat_u8(4 * ge)));
    ge8 = _mm256_set1_epi8(static_cast<char>(sat_u8(8 * ge)));
    // ramp1: lane l decays by (l + 1) * extend; ramp_high: lanes 16..31
    // by (l - 15) * extend (the low half is never read).
    std::array<std::uint8_t, 32> r1{}, rh{};
    for (int l = 0; l < 32; ++l) {
      r1[static_cast<std::size_t>(l)] = sat_u8((l + 1) * ge);
      rh[static_cast<std::size_t>(l)] = l < 16 ? 0 : sat_u8((l - 15) * ge);
    }
    ramp1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1.data()));
    ramp_high =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rh.data()));
    bias128 = _mm256_set1_epi8(static_cast<char>(128));
    flip = _mm256_set1_epi8(static_cast<char>(0x80));
    x = _mm256_set1_epi8(static_cast<char>(params.x_drop));
    margin = _mm256_set1_epi8(static_cast<char>(margin_s));
    best = _mm256_set1_epi8(static_cast<char>(best_s));
  }
};

/// Every byte lane moved up one position; lane 0 takes lane 31 of
/// `below` (a zero `below` fills the sentinel).
__attribute__((target("avx2"))) inline __m256i shift_in8(__m256i x,
                                                         __m256i below) {
  return _mm256_alignr_epi8(x, _mm256_permute2x128_si256(x, below, 0x03), 15);
}

/// Low half's lane 15 copied into every lane of the high half; the low
/// half reads as the sentinel.
__attribute__((target("avx2"))) inline __m256i low_top_to_high8(__m256i x) {
  return _mm256_shuffle_epi8(_mm256_permute2x128_si256(x, x, 0x08),
                             _mm256_set1_epi8(15));
}

/// Lane 31 copied to every lane.
__attribute__((target("avx2"))) inline __m256i broadcast_lane31(__m256i x) {
  return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(x, 0xFF),
                             _mm256_set1_epi8(15));
}

/// Decayed in-block prefix-max: lane l becomes max_{k<=l}(t(k) -
/// (l-k)*extend). Four log-step shift-maxes inside each 128-bit half,
/// then one cross-half step from lane 15.
__attribute__((target("avx2"))) inline __m256i decayed_prefix_max8(
    __m256i t, const XdropVectors& xv) {
  t = _mm256_max_epu8(t, _mm256_subs_epu8(_mm256_slli_si256(t, 1), xv.ge1));
  t = _mm256_max_epu8(t, _mm256_subs_epu8(_mm256_slli_si256(t, 2), xv.ge2));
  t = _mm256_max_epu8(t, _mm256_subs_epu8(_mm256_slli_si256(t, 4), xv.ge4));
  t = _mm256_max_epu8(t, _mm256_subs_epu8(_mm256_slli_si256(t, 8), xv.ge8));
  return _mm256_max_epu8(
      t, _mm256_subs_epu8(low_top_to_high8(t), xv.ramp_high));
}

/// Plain in-block prefix-max: lane l becomes max_{k<=l} x(k).
__attribute__((target("avx2"))) inline __m256i prefix_max8(__m256i x) {
  x = _mm256_max_epu8(x, _mm256_slli_si256(x, 1));
  x = _mm256_max_epu8(x, _mm256_slli_si256(x, 2));
  x = _mm256_max_epu8(x, _mm256_slli_si256(x, 4));
  x = _mm256_max_epu8(x, _mm256_slli_si256(x, 8));
  return _mm256_max_epu8(x, low_top_to_high8(x));
}

__attribute__((target("avx2"))) inline std::uint8_t horizontal_max_epu8(
    __m256i v) {
  __m128i m = _mm_max_epu8(_mm256_castsi256_si128(v),
                           _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m));
}

inline std::size_t first_lane(std::uint32_t bits) {
  return static_cast<std::size_t>(std::countr_zero(bits));
}
inline std::size_t last_lane(std::uint32_t bits) {
  return static_cast<std::size_t>(31 - std::countl_zero(bits));
}

/// One X-drop half extension as a row stepper: step() runs one DP row,
/// so a caller can advance several independent halves in turn. Rows use
/// the scalar kernel's band rule (row i spans [lo, min(hi + 1, m)] of
/// the previous row's live range) and stop at the first all-pruned row
/// or the last row. Cells are stored relative to best - x_drop - M, so
/// the running best is always best_s and the prune threshold margin_s.
class XdropRows {
 public:
  __attribute__((target("avx2"))) XdropRows(const XdropHalf& half,
                                            const GappedSimdMatrix& rows,
                                            const XdropVectors& xv,
                                            std::vector<std::uint8_t>& buffer)
      : rows_(rows),
        xv_(xv),
        n_(half.a.size()),
        m_(half.b.size()),
        running_(n_ != 0 && m_ != 0) {
    if (!running_) return;
    a_ = half.backward ? half.a.data() + (n_ - 1) : half.a.data();
    a_step_ = half.backward ? -1 : 1;
    // Four +1-offset DP rows (index j + 1 holds column j; index 0 is
    // never read, as each row's first diagonal shifts in the sentinel)
    // and the subject codes (index j holds column j's residue, coded as
    // rows reach it), carved from the caller's grow-only buffer.
    const std::size_t cap = m_ + kRowSlack;
    if (buffer.size() < 5 * cap) buffer.resize(5 * cap);
    h_prev_ = buffer.data();
    f_prev_ = h_prev_ + cap;
    h_cur_ = f_prev_ + cap;
    f_cur_ = h_cur_ + cap;
    codes_ = f_cur_ + cap;
    b_ = half.b.data();
    backward_ = half.backward;
    codes_[0] = lookup_code(0);  // column 0 has no diagonal source

    // Row 0 (scalar, one row): store-then-break like the reference.
    h_prev_[1] = xv_.best_s;
    std::uint8_t e = 0;
    for (std::size_t j = 1; j <= m_; ++j) {
      e = std::max(sat_u8(h_prev_[j] - xv_.go_s), sat_u8(e - xv_.ge_s));
      h_prev_[j + 1] = e;
      if (e < xv_.margin_s) break;
      hi_ = j;
    }
    // Row 1 reads F up to column hi + 1: all -inf in row 0.
    std::fill(f_prev_, f_prev_ + hi_ + 3, std::uint8_t{0});
  }

  bool running() const noexcept { return running_; }

  HalfExtension result() const { return {best_, best_i_, best_j_}; }

  /// Row i_ + 1: candidates and the optimistic prune (against the best
  /// at the row's start) fused per block; the fix-up pass only when the
  /// row max beats that best (see gapped_simd.hpp).
  __attribute__((target("avx2"))) void step() {
    const std::size_t i = ++i_;
    const std::size_t row_lo = lo_;
    const std::size_t row_hi = std::min(hi_ + 1, m_);
    if (row_hi > coded_) code_columns(row_hi);
    const std::uint8_t* row =
        rows_.row(a_[static_cast<std::ptrdiff_t>(i - 1) * a_step_]);
    const __m256i row_low = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
    const __m256i row_high = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16)));
    const XdropVectors& xv = xv_;

    // Cross-block carries stay in registers: `w` holds the previous
    // block's E sources (lane 31 + extend = E of this block's first
    // column), `above` the previous block's H sources (lane 31 = this
    // block's first diagonal).
    __m256i w = _mm256_setzero_si256();
    __m256i above = _mm256_setzero_si256();
    __m256i row_max = _mm256_setzero_si256();
    std::size_t new_lo = kNoColumn, new_hi = 0;
    for (std::size_t j0 = row_lo; j0 <= row_hi; j0 += 32) {
      // Diagonal sources shifted in from `above` rather than loaded one
      // cell to the left: that load would straddle two of the previous
      // row's stores and miss store forwarding. Column row_lo - 1 of the
      // previous row was pruned or out of range, so the first block's
      // diagonal shifts in the sentinel.
      const __m256i habove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_prev_ + j0 + 1));
      const __m256i hdiag = shift_in8(habove, above);
      above = habove;
      const __m256i fabove = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(f_prev_ + j0 + 1));
      const __m256i fv = _mm256_max_epu8(_mm256_subs_epu8(habove, xv.go),
                                         _mm256_subs_epu8(fabove, xv.ge1));
      const __m256i code = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes_ + j0));
      const __m256i vals = _mm256_or_si256(
          _mm256_shuffle_epi8(row_low, code),
          _mm256_shuffle_epi8(row_high, _mm256_xor_si256(code, xv.flip)));
      const __m256i diag = _mm256_subs_epu8(_mm256_adds_epu8(hdiag, vals),
                                            xv.bias128);
      const __m256i c = _mm256_max_epu8(fv, diag);
      // Lazy E in inclusive form: with u(l) = max_{k<=l}(C(k) - open -
      // (l-k)*extend), max(C, E) = max(C, u), u carried across blocks
      // from the previous block's lane 31 by the (l+1)*extend ramp.
      w = _mm256_max_epu8(
          decayed_prefix_max8(_mm256_subs_epu8(c, xv.open), xv),
          _mm256_subs_epu8(broadcast_lane31(w), xv.ramp1));
      __m256i cand = _mm256_max_epu8(c, w);
      const std::size_t left = row_hi - j0 + 1;
      if (left < 32) {
        // Lanes past row_hi read real cells as diagonal sources; mask
        // them to the sentinel so they are neither live nor the max.
        cand = _mm256_and_si256(
            cand, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                      kTailMask.data() + 32 - left)));
      }
      row_max = _mm256_max_epu8(row_max, cand);
      const __m256i live =
          _mm256_cmpeq_epi8(_mm256_max_epu8(cand, xv.margin), cand);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(f_cur_ + j0 + 1), fv);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h_cur_ + j0 + 1),
                          _mm256_and_si256(cand, live));
      const auto live_bits =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(live));
      if (live_bits != 0) {
        if (new_lo == kNoColumn) new_lo = j0 + first_lane(live_bits);
        new_hi = j0 + last_lane(live_bits);
      }
    }
    // One position past the live range (the next row reads at most that
    // far) must read as a sentinel, not a stale cell. The next row reads
    // nothing before row_lo: its first diagonal comes from `above`.
    h_cur_[row_hi + 2] = 0;
    f_cur_[row_hi + 2] = 0;
    if (new_lo == kNoColumn) {  // every cell pruned
      running_ = false;
      return;
    }
    const __m256i rise = _mm256_subs_epu8(row_max, xv.best);
    if (!_mm256_testz_si256(rise, rise)) {
      fix_up(i, row_lo, row_hi, horizontal_max_epu8(row_max), new_hi);
    }
    lo_ = new_lo;
    hi_ = new_hi;
    std::swap(h_prev_, h_cur_);
    std::swap(f_prev_, f_cur_);
    if (i == n_) running_ = false;
  }

 private:
  /// Codes the subject through column `last` and at least 64 columns
  /// past what is coded (capped at m): halves that die early never read
  /// the rest of a long subject. Lanes past a row's end may read codes
  /// not written yet; any byte selects some table entry, and those lanes
  /// are masked.
  void code_columns(std::size_t last) {
    const std::size_t end = std::min(m_, std::max(last, coded_ + 64));
    if (backward_) {
      for (std::size_t j = coded_ + 1; j <= end; ++j) {
        codes_[j] = lookup_code(b_[m_ - j]);
      }
    } else {
      for (std::size_t j = coded_ + 1; j <= end; ++j) {
        codes_[j] = lookup_code(b_[j - 1]);
      }
    }
    coded_ = end;
  }

  /// The exact pass of a row whose max `top` beats the best: prunes
  /// against the running best P (the prefix max seeded with the best),
  /// recomputes the live range's end, moves the best to the first cell
  /// equal to `top`, and rebases h and f down by the rise so the new
  /// best is stored at best_s.
  __attribute__((target("avx2"))) void fix_up(std::size_t i,
                                              std::size_t row_lo,
                                              std::size_t row_hi,
                                              std::uint8_t top,
                                              std::size_t& new_hi) {
    const XdropVectors& xv = xv_;
    const __m256i top_v = _mm256_set1_epi8(static_cast<char>(top));
    const __m256i rise =
        _mm256_set1_epi8(static_cast<char>(top - xv.best_s));
    // Blocks before the first cell above the best only rebase: P is the
    // best there, so the optimistic prune was exact, and the first live
    // cell (new_lo) lies at or before that cell.
    std::size_t j0 = row_lo;
    for (;; j0 += 32) {
      __m256i* h_at = reinterpret_cast<__m256i*>(h_cur_ + j0 + 1);
      __m256i* f_at = reinterpret_cast<__m256i*>(f_cur_ + j0 + 1);
      const __m256i h = _mm256_loadu_si256(h_at);
      const __m256i over = _mm256_subs_epu8(h, xv.best);
      if (!_mm256_testz_si256(over, over)) break;
      _mm256_storeu_si256(h_at, _mm256_subs_epu8(h, rise));
      _mm256_storeu_si256(f_at,
                          _mm256_subs_epu8(_mm256_loadu_si256(f_at), rise));
    }
    __m256i run = xv.best;
    bool found = false;
    for (; j0 <= row_hi; j0 += 32) {
      __m256i* h_at = reinterpret_cast<__m256i*>(h_cur_ + j0 + 1);
      __m256i* f_at = reinterpret_cast<__m256i*>(f_cur_ + j0 + 1);
      const __m256i h = _mm256_loadu_si256(h_at);
      run = _mm256_max_epu8(prefix_max8(h), run);
      const __m256i live = _mm256_cmpeq_epi8(
          _mm256_max_epu8(h, _mm256_subs_epu8(run, xv.x)), h);
      const __m256i kept = _mm256_and_si256(h, live);
      const auto live_bits =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(live));
      // The best cell is live and lies in or after this first block, so
      // the last live cell (new_hi) does too.
      if (live_bits != 0) new_hi = j0 + last_lane(live_bits);
      if (!found) {
        const auto top_bits = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(kept, top_v)));
        if (top_bits != 0) {
          best_j_ = j0 + first_lane(top_bits);
          found = true;
        }
      }
      _mm256_storeu_si256(h_at, _mm256_subs_epu8(kept, rise));
      _mm256_storeu_si256(f_at,
                          _mm256_subs_epu8(_mm256_loadu_si256(f_at), rise));
      run = broadcast_lane31(run);
    }
    best_ += top - xv.best_s;
    best_i_ = i;
  }

  const GappedSimdMatrix& rows_;
  const XdropVectors& xv_;
  const std::uint8_t* a_ = nullptr;
  std::ptrdiff_t a_step_ = 1;
  std::size_t n_, m_;
  std::uint8_t* h_prev_ = nullptr;
  std::uint8_t* f_prev_ = nullptr;
  std::uint8_t* h_cur_ = nullptr;
  std::uint8_t* f_cur_ = nullptr;
  std::uint8_t* codes_ = nullptr;
  const std::uint8_t* b_ = nullptr;
  bool backward_ = false;
  std::size_t coded_ = 0;  // codes_[1..coded_] hold columns 1..coded_
  std::size_t i_ = 0;
  std::size_t lo_ = 0, hi_ = 0;
  int best_ = 0;
  std::size_t best_i_ = 0, best_j_ = 0;
  bool running_;
};

}  // namespace

__attribute__((target("avx2"))) HalfExtension xdrop_gapped_half_avx2(
    const XdropHalf& half, const GappedSimdMatrix& rows,
    const GapParams& params, XdropScratch& scratch) {
  const XdropVectors xv(params, rows);
  XdropRows stepper(half, rows, xv, scratch.halves[0]);
  while (stepper.running()) stepper.step();
  return stepper.result();
}

__attribute__((target("avx2"))) std::array<HalfExtension, 2>
xdrop_gapped_halves_avx2(const XdropHalf& first, const XdropHalf& second,
                         const GappedSimdMatrix& rows, const GapParams& params,
                         XdropScratch& scratch) {
  const XdropVectors xv(params, rows);
  XdropRows one(first, rows, xv, scratch.halves[0]);
  XdropRows two(second, rows, xv, scratch.halves[1]);
  // One row of each in turn: the halves share no data, so the core
  // overlaps one half's carry and store-forwarding latency with the
  // other's arithmetic.
  while (one.running() && two.running()) {
    one.step();
    two.step();
  }
  while (one.running()) one.step();
  while (two.running()) two.step();
  return {one.result(), two.result()};
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
