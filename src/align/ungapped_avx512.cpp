// AVX-512 tier of the striped 8-bit step-2 screen: 64 windows per 512-bit
// vector in biased unsigned-saturating u8 lanes (the recurrence and its
// exactness argument are in align/ungapped_simd.hpp). The 32-cell biased
// substitution row sits in one register and each position's 64 IL1
// residues are looked up with a single vpermb (AVX-512 VBMI). Two zmm
// groups per loop overlap their independent add/sub/max chains; a 64-lane
// remainder runs on one zmm and a final 32-lane group (the striped stride
// is a multiple of 32) on one ymm vpermb. Kept in its own translation unit
// with per-function target attributes, like the AVX2 tier, so the rest of
// the library builds for the baseline ISA; align/cpu_features.hpp gates
// entry at runtime.
#include "align/ungapped_simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

// GCC 12 reports the _mm512_undefined_epi32() pass-through operand inside
// the unmasked broadcast and vpermb intrinsics as maybe-uninitialized
// (GCC bug 105593); the operand is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

#define PSC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vbmi")))

namespace psc::align {

bool ungapped_avx512_available() noexcept {
  const CpuFeatures& features = cpu_features();
  return features.avx512bw && features.avx512vl && features.avx512vbmi;
}

namespace {

constexpr std::size_t kYmmLanes = index::StripedWindows::kLaneWidth;
constexpr std::size_t kZmmLanes = 2 * kYmmLanes;
static_assert(kYmmLanes == 32, "the ymm tail carries 32 x 8-bit lanes");
static_assert(SubstitutionRows::kStride == kYmmLanes,
              "one biased row fills one ymm lookup table");

/// The biased row of IL0 residue `code`, broadcast to both 256-bit halves.
/// vpermb reads 6 index bits and encoded residues are < 32, so every lane
/// selects its own residue's cell.
PSC_AVX512_TARGET inline __m512i load_row(const SubstitutionRows& rows,
                                          std::uint8_t code) {
  return _mm512_broadcast_i64x4(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows.row(code))));
}

/// Biased substitution cells of the 64 windows of group `g` at position k.
PSC_AVX512_TARGET inline __m512i lookup(const index::StripedWindows& windows,
                                        std::size_t k, std::size_t g,
                                        __m512i row) {
  return _mm512_permutexvar_epi8(
      _mm512_loadu_si512(windows.position(k) + g), row);
}

/// One PE step on 64 lanes: acc = max(0, acc + s) carried biased and
/// saturating, best = max(best, acc).
PSC_AVX512_TARGET inline void step(__m512i vals, __m512i bias, __m512i& acc,
                                   __m512i& best) {
  acc = _mm512_subs_epu8(_mm512_adds_epu8(acc, vals), bias);
  best = _mm512_max_epu8(best, acc);
}

/// Appends {g + l, lanes[l]} for each set bit l of `mask`, ascending.
void push_lanes(std::uint64_t mask, const std::uint8_t* lanes, std::size_t g,
                std::vector<WindowScore>& out) {
  while (mask != 0) {
    const auto l = static_cast<std::size_t>(std::countr_zero(mask));
    out.push_back(WindowScore{static_cast<std::uint32_t>(g + l), lanes[l]});
    mask &= mask - 1;
  }
}

/// Appends the real lanes of the 64-lane group `g` whose best reaches
/// `pass_at`.
PSC_AVX512_TARGET void emit(__m512i best, __m512i pass_at, std::size_t g,
                            std::size_t count, std::vector<WindowScore>& out) {
  std::uint64_t mask = _mm512_cmpge_epu8_mask(best, pass_at);
  if (count - g < kZmmLanes) mask &= (std::uint64_t{1} << (count - g)) - 1;
  if (mask == 0) return;
  alignas(64) std::uint8_t lanes[kZmmLanes];
  _mm512_store_si512(lanes, best);
  push_lanes(mask, lanes, g, out);
}

/// The final 32-lane group `g`: the same recurrence on one ymm, with the
/// row in the low half of `row` (ymm vpermb reads 5 index bits).
PSC_AVX512_TARGET void screen_tail(std::span<const std::uint8_t> window0,
                                   const SubstitutionRows& rows,
                                   const index::StripedWindows& windows,
                                   std::uint8_t pass_at, std::size_t g,
                                   std::vector<WindowScore>& out) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(rows.bias()));
  __m256i acc = _mm256_setzero_si256(), best = acc;
  for (std::size_t k = 0; k < window0.size(); ++k) {
    const __m256i row = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rows.row(window0[k])));
    const __m256i vals = _mm256_permutexvar_epi8(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(windows.position(k) + g)),
        row);
    acc = _mm256_subs_epu8(_mm256_adds_epu8(acc, vals), bias);
    best = _mm256_max_epu8(best, acc);
  }
  const std::size_t count = windows.size();
  std::uint64_t mask =
      _mm256_cmpge_epu8_mask(best, _mm256_set1_epi8(static_cast<char>(pass_at)));
  if (count - g < kYmmLanes) mask &= (std::uint64_t{1} << (count - g)) - 1;
  if (mask == 0) return;
  alignas(32) std::uint8_t lanes[kYmmLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  push_lanes(mask, lanes, g, out);
}

}  // namespace

PSC_AVX512_TARGET void ungapped_screen_rows_vs_striped_avx512(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates) {
  if (window0.size() != windows.window_length()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped_avx512: length mismatch");
  }
  if (threshold > rows.ceiling()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped_avx512: threshold above the 8-bit "
        "ceiling");
  }
  candidates.clear();
  const std::size_t count = windows.size();
  if (count == 0) return;

  const std::size_t len = window0.size();
  const std::size_t stride = windows.padded_size();
  const auto pass_at = static_cast<std::uint8_t>(std::max(threshold, 0));
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(rows.bias()));
  const __m512i pass_at_v = _mm512_set1_epi8(static_cast<char>(pass_at));
  const __m512i zero = _mm512_setzero_si512();
  std::size_t g = 0;
  // Two 64-lane groups per pass share each row load and overlap their
  // chains.
  for (; g + 2 * kZmmLanes <= stride; g += 2 * kZmmLanes) {
    __m512i acc0 = zero, best0 = zero, acc1 = zero, best1 = zero;
    for (std::size_t k = 0; k < len; ++k) {
      const __m512i row = load_row(rows, window0[k]);
      step(lookup(windows, k, g, row), bias, acc0, best0);
      step(lookup(windows, k, g + kZmmLanes, row), bias, acc1, best1);
    }
    emit(best0, pass_at_v, g, count, candidates);
    emit(best1, pass_at_v, g + kZmmLanes, count, candidates);
  }
  if (g + kZmmLanes <= stride) {
    __m512i acc = zero, best = zero;
    for (std::size_t k = 0; k < len; ++k) {
      step(lookup(windows, k, g, load_row(rows, window0[k])), bias, acc, best);
    }
    emit(best, pass_at_v, g, count, candidates);
    g += kZmmLanes;
  }
  if (g < stride) screen_tail(window0, rows, windows, pass_at, g, candidates);
}

}  // namespace psc::align

#undef PSC_AVX512_TARGET
#pragma GCC diagnostic pop

#endif  // x86 && GNUC
