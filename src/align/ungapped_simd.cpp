#include "align/ungapped_simd.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/ungapped.hpp"

namespace psc::align {

const char* ungapped_kernel_name(UngappedKernel kernel) noexcept {
  switch (kernel) {
    case UngappedKernel::kAuto: return "auto";
    case UngappedKernel::kScalar: return "scalar";
    case UngappedKernel::kBlocked: return "blocked";
    case UngappedKernel::kSimd: return "simd";
  }
  return "unknown";
}

std::optional<UngappedKernel> parse_ungapped_kernel(
    std::string_view name) noexcept {
  if (name == "auto") return UngappedKernel::kAuto;
  if (name == "scalar") return UngappedKernel::kScalar;
  if (name == "blocked") return UngappedKernel::kBlocked;
  if (name == "simd") return UngappedKernel::kSimd;
  return std::nullopt;
}

bool simd_kernel_applicable(const bio::SubstitutionMatrix& matrix,
                            int threshold) noexcept {
  // Saturation lies at or above the threshold, so a clamped lane is
  // always a candidate (derivation in the header).
  return SubstitutionRows::representable(matrix) &&
         threshold + SubstitutionRows::bias_for(matrix) <= 255;
}

UngappedKernel resolve_ungapped_kernel(UngappedKernel requested,
                                       const bio::SubstitutionMatrix& matrix,
                                       int threshold) noexcept {
  switch (requested) {
    case UngappedKernel::kScalar:
    case UngappedKernel::kBlocked:
      return requested;
    case UngappedKernel::kAuto:
    case UngappedKernel::kSimd:
      return simd_kernel_applicable(matrix, threshold)
                 ? UngappedKernel::kSimd
                 : UngappedKernel::kBlocked;
  }
  return UngappedKernel::kBlocked;
}

void ungapped_screen_rows_vs_striped_portable(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates) {
  if (window0.size() != windows.window_length()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped: length mismatch");
  }
  if (threshold > rows.ceiling()) {
    throw std::invalid_argument(
        "ungapped_screen_rows_vs_striped: threshold above the 8-bit ceiling");
  }
  candidates.clear();
  const std::size_t count = windows.size();
  if (count == 0) return;

  constexpr std::size_t kLanes = index::StripedWindows::kLaneWidth;
  const std::size_t len = window0.size();
  const std::size_t stride = windows.padded_size();
  const unsigned bias = static_cast<unsigned>(rows.bias());
  const int pass_at = std::max(threshold, 0);

  for (std::size_t g = 0; g < stride; g += kLanes) {
    std::uint8_t acc[kLanes] = {};
    std::uint8_t best[kLanes] = {};
    std::uint8_t vals[kLanes];
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint8_t* resid = windows.position(k) + g;
      const std::uint8_t* row = rows.row(window0[k]);
      for (std::size_t l = 0; l < kLanes; ++l) vals[l] = row[resid[l]];
      // Split arithmetic loop: no loads with data-dependent addresses, so
      // it autovectorizes to SSE2/NEON u8 ops (the clamps reproduce
      // adds_epu8 / subs_epu8).
      for (std::size_t l = 0; l < kLanes; ++l) {
        unsigned t = std::min(unsigned{acc[l]} + vals[l], 255u);
        t = t > bias ? t - bias : 0;
        acc[l] = static_cast<std::uint8_t>(t);
        best[l] = std::max(best[l], acc[l]);
      }
    }
    const std::size_t limit = std::min(kLanes, count - g);
    for (std::size_t l = 0; l < limit; ++l) {
      if (best[l] >= pass_at) {
        candidates.push_back(
            WindowScore{static_cast<std::uint32_t>(g + l), best[l]});
      }
    }
  }
}

void ungapped_screen_rows_vs_striped(std::span<const std::uint8_t> window0,
                                     const SubstitutionRows& rows,
                                     const index::StripedWindows& windows,
                                     int threshold,
                                     std::vector<WindowScore>& candidates) {
  static const SimdTier tier = best_simd_tier();
  if (tier == SimdTier::kAvx512) {
    ungapped_screen_rows_vs_striped_avx512(window0, rows, windows, threshold,
                                           candidates);
    return;
  }
  if (tier == SimdTier::kAvx2) {
    ungapped_screen_rows_vs_striped_avx2(window0, rows, windows, threshold,
                                         candidates);
    return;
  }
  ungapped_screen_rows_vs_striped_portable(window0, rows, windows, threshold,
                                           candidates);
}

void ungapped_hits_rows_vs_striped(std::span<const std::uint8_t> window0,
                                   const SubstitutionRows& rows,
                                   const index::StripedWindows& striped,
                                   index::WindowSpan batch,
                                   const bio::SubstitutionMatrix& matrix,
                                   int threshold,
                                   std::vector<WindowScore>& hits) {
  if (striped.size() != batch.size()) {
    throw std::invalid_argument(
        "ungapped_hits_rows_vs_striped: striped image of another batch");
  }
  ungapped_screen_rows_vs_striped(window0, rows, striped, threshold, hits);
  // The candidates are the hits; a best below the ceiling is exact, one at
  // the ceiling may have clamped and the scalar reference decides it.
  for (WindowScore& hit : hits) {
    if (hit.score == rows.ceiling()) {
      hit.score =
          ungapped_window_score(window0, batch.window(hit.window), matrix);
    }
  }
}

UngappedHitFinder::UngappedHitFinder(UngappedKernel requested,
                                     const bio::SubstitutionMatrix& matrix,
                                     int threshold)
    : matrix_(&matrix),
      threshold_(threshold),
      kernel_(resolve_ungapped_kernel(requested, matrix, threshold)) {
  if (kernel_ == UngappedKernel::kSimd) rows_.emplace(matrix);
}

void UngappedHitFinder::assign(index::WindowSpan batch) {
  batch_ = batch;
  striped_batch_ =
      kernel_ == UngappedKernel::kSimd && batch.size() >= kSimdMinBatch;
  if (striped_batch_) striped_.assign(batch);
}

void UngappedHitFinder::hits(std::span<const std::uint8_t> window0,
                             std::vector<WindowScore>& hits) {
  if (striped_batch_) {
    ungapped_hits_rows_vs_striped(window0, *rows_, striped_, batch_, *matrix_,
                                  threshold_, hits);
    return;
  }
  if (kernel_ == UngappedKernel::kScalar) {
    ungapped_score_one_vs_many(window0, batch_, *matrix_, scores_);
  } else {
    ungapped_score_one_vs_many_blocked(window0, batch_, *matrix_, scores_);
  }
  hits.clear();
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    if (scores_[i] >= threshold_) {
      hits.push_back(WindowScore{static_cast<std::uint32_t>(i), scores_[i]});
    }
  }
}

#if !(defined(__x86_64__) || defined(__i386__)) || !defined(__GNUC__)

bool ungapped_avx512_available() noexcept { return false; }

void ungapped_screen_rows_vs_striped_avx512(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates) {
  ungapped_screen_rows_vs_striped_portable(window0, rows, windows, threshold,
                                           candidates);
}

bool ungapped_avx2_available() noexcept { return false; }

void ungapped_screen_rows_vs_striped_avx2(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates) {
  ungapped_screen_rows_vs_striped_portable(window0, rows, windows, threshold,
                                           candidates);
}

#endif

}  // namespace psc::align
