// AVX2 tier of the striped ungapped kernel. Kept in its own translation
// unit with per-function target("avx2") attributes so the rest of the
// library builds for the baseline ISA and the binary still runs (via the
// portable tier) on CPUs without AVX2; align/cpu_features.hpp gates entry
// at runtime.
#include "align/ungapped_simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include <stdexcept>

namespace psc::align {

bool ungapped_avx2_available() noexcept {
  const CpuFeatures& features = cpu_features();
  return features.avx2 && features.ssse3 && features.sse41;
}

__attribute__((target("avx2"))) void ungapped_score_rows_vs_striped_avx2(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, std::vector<int>& scores) {
  if (window0.size() != windows.window_length()) {
    throw std::invalid_argument(
        "ungapped_score_rows_vs_striped_avx2: length mismatch");
  }
  const std::size_t count = windows.size();
  scores.resize(count);
  if (count == 0) return;

  constexpr std::size_t kLanes = index::StripedWindows::kLaneWidth;
  static_assert(kLanes == 16, "AVX2 tier carries 16 x 16-bit lanes");
  const std::size_t len = window0.size();
  const std::size_t stride = windows.padded_size();
  const __m128i fifteen = _mm_set1_epi8(15);
  const __m256i zero = _mm256_setzero_si256();

  for (std::size_t g = 0; g < stride; g += kLanes) {
    __m256i acc = zero;
    __m256i best = zero;
    for (std::size_t k = 0; k < len; ++k) {
      // 16 residues, one per lane/window, contiguous by construction.
      const __m128i resid = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(windows.position(k) + g));
      // 32-entry int8 substitution-row lookup without a memory gather:
      // shuffle both 16-byte halves by the low index bits, select by
      // residue >= 16 (pshufb reads only bits 0-3 and 7 of each index, and
      // encoded residues are < 32, so r & 15 addresses the right cell of
      // the selected half).
      const std::int8_t* row = rows.row(window0[k]);
      const __m128i row_lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
      const __m128i row_hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16));
      const __m128i hi_sel = _mm_cmpgt_epi8(resid, fifteen);
      const __m128i from_lo = _mm_shuffle_epi8(row_lo, resid);
      const __m128i from_hi = _mm_shuffle_epi8(row_hi, resid);
      const __m128i vals8 = _mm_blendv_epi8(from_lo, from_hi, hi_sel);
      // Widen to 16-bit and run the PE recurrence across all lanes.
      const __m256i vals = _mm256_cvtepi8_epi16(vals8);
      acc = _mm256_adds_epi16(acc, vals);
      acc = _mm256_max_epi16(acc, zero);
      best = _mm256_max_epi16(best, acc);
    }
    alignas(32) std::int16_t lanes[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    const std::size_t limit = count - g < kLanes ? count - g : kLanes;
    for (std::size_t l = 0; l < limit; ++l) scores[g + l] = lanes[l];
  }
}

}  // namespace psc::align

#endif  // x86 && GNUC
