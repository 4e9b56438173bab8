// AVX2 tier of the striped 8-bit step-2 screen: 32 windows per 256-bit
// vector in biased unsigned-saturating u8 lanes (the recurrence and its
// exactness argument are in align/ungapped_simd.hpp), two 32-window groups
// per loop so their independent add/sub/max chains overlap. Kept in its
// own translation unit with per-function target("avx2") attributes so the
// rest of the library builds for the baseline ISA and the binary still
// runs (via the portable tier) on CPUs without AVX2;
// align/cpu_features.hpp gates entry at runtime.
#include "align/ungapped_simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace psc::align {

bool ungapped_avx2_available() noexcept {
  const CpuFeatures& features = cpu_features();
  return features.avx2 && features.ssse3 && features.sse41;
}

namespace {

constexpr std::size_t kLanes = index::StripedWindows::kLaneWidth;
static_assert(kLanes == 32, "AVX2 tier carries 32 x 8-bit lanes");

/// Biased substitution cells of the 32 residues at `resid`: the 32-entry
/// u8 row, broadcast to both 128-bit lanes as row_lo / row_hi, is looked
/// up without a memory gather -- shuffle both halves by the low index
/// bits, select by residue >= 16 (pshufb reads only bits 0-3 and 7 of each
/// index, and encoded residues are < 32, so r & 15 addresses the right
/// cell of the selected half).
__attribute__((target("avx2"))) inline __m256i lookup(__m256i row_lo,
                                                      __m256i row_hi,
                                                      __m256i resid) {
  const __m256i hi_sel = _mm256_cmpgt_epi8(resid, _mm256_set1_epi8(15));
  return _mm256_blendv_epi8(_mm256_shuffle_epi8(row_lo, resid),
                            _mm256_shuffle_epi8(row_hi, resid), hi_sel);
}

/// The biased row of IL0 residue `code`, both 16-cell halves broadcast to
/// both 128-bit lanes (pshufb shuffles within each 128-bit lane).
__attribute__((target("avx2"))) inline void load_row(
    const SubstitutionRows& rows, std::uint8_t code, __m256i& lo,
    __m256i& hi) {
  const std::uint8_t* row = rows.row(code);
  lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
  hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16)));
}

__attribute__((target("avx2"))) inline __m256i load_resid(
    const index::StripedWindows& windows, std::size_t k, std::size_t g) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(windows.position(k) + g));
}

/// One PE step on 32 lanes: acc = max(0, acc + s) carried biased and
/// saturating, best = max(best, acc).
__attribute__((target("avx2"))) inline void step(__m256i vals, __m256i bias,
                                                 __m256i& acc, __m256i& best) {
  acc = _mm256_subs_epu8(_mm256_adds_epu8(acc, vals), bias);
  best = _mm256_max_epu8(best, acc);
}

/// Appends the real lanes of group `g` whose best reaches `pass_at`.
__attribute__((target("avx2"))) void emit(__m256i best, __m256i pass_at,
                                          std::size_t g, std::size_t count,
                                          std::vector<WindowScore>& out) {
  const __m256i passed =
      _mm256_cmpeq_epi8(_mm256_max_epu8(best, pass_at), best);
  auto mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(passed));
  if (count - g < kLanes) mask &= (std::uint32_t{1} << (count - g)) - 1;
  if (mask == 0) return;
  alignas(32) std::uint8_t lanes[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  do {
    const auto l = static_cast<std::size_t>(std::countr_zero(mask));
    out.push_back(WindowScore{static_cast<std::uint32_t>(g + l), lanes[l]});
    mask &= mask - 1;
  } while (mask != 0);
}

}  // namespace

__attribute__((target("avx2"))) void ungapped_screen_rows_vs_striped_avx2(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates) {
  if (window0.size() != windows.window_length()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped_avx2: length mismatch");
  }
  if (threshold > rows.ceiling()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped_avx2: threshold above the 8-bit "
        "ceiling");
  }
  candidates.clear();
  const std::size_t count = windows.size();
  if (count == 0) return;

  const std::size_t len = window0.size();
  const std::size_t stride = windows.padded_size();
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(rows.bias()));
  const __m256i pass_at =
      _mm256_set1_epi8(static_cast<char>(std::max(threshold, 0)));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t g = 0;
  // Two groups per pass share each row load and overlap their chains.
  for (; g + 2 * kLanes <= stride; g += 2 * kLanes) {
    __m256i acc0 = zero, best0 = zero, acc1 = zero, best1 = zero;
    for (std::size_t k = 0; k < len; ++k) {
      __m256i row_lo, row_hi;
      load_row(rows, window0[k], row_lo, row_hi);
      step(lookup(row_lo, row_hi, load_resid(windows, k, g)), bias, acc0, best0);
      step(lookup(row_lo, row_hi, load_resid(windows, k, g + kLanes)), bias, acc1,
           best1);
    }
    emit(best0, pass_at, g, count, candidates);
    emit(best1, pass_at, g + kLanes, count, candidates);
  }
  if (g < stride) {
    __m256i acc = zero, best = zero;
    for (std::size_t k = 0; k < len; ++k) {
      __m256i row_lo, row_hi;
      load_row(rows, window0[k], row_lo, row_hi);
      step(lookup(row_lo, row_hi, load_resid(windows, k, g)), bias, acc, best);
    }
    emit(best, pass_at, g, count, candidates);
  }
}

}  // namespace psc::align

#endif  // x86 && GNUC
