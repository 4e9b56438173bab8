#include "align/ungapped_simd.hpp"

#include <algorithm>
#include <stdexcept>

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
                            std::size_t window_length) noexcept {
  if (!SubstitutionRows::representable(matrix)) return false;
  // The running score is clamped at zero, so the only overflow risk is the
  // all-positive upper bound length * max_score hitting int16 saturation.
  const std::int64_t max_gain = std::max<std::int64_t>(0, matrix.max_score());
  return static_cast<std::int64_t>(window_length) * max_gain <= 32767;
}

UngappedKernel resolve_ungapped_kernel(UngappedKernel requested,
                                       const bio::SubstitutionMatrix& matrix,
                                       std::size_t window_length) noexcept {
  switch (requested) {
    case UngappedKernel::kScalar:
    case UngappedKernel::kBlocked:
      return requested;
    case UngappedKernel::kAuto:
    case UngappedKernel::kSimd:
      return simd_kernel_applicable(matrix, window_length)
                 ? UngappedKernel::kSimd
                 : UngappedKernel::kBlocked;
  }
  return UngappedKernel::kBlocked;
}

void ungapped_score_rows_vs_striped_portable(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, std::vector<int>& scores) {
  if (window0.size() != windows.window_length()) {
    throw std::invalid_argument(
        "ungapped_score_rows_vs_striped: length mismatch");
  }
  const std::size_t count = windows.size();
  scores.resize(count);
  if (count == 0) return;

  constexpr std::size_t kLanes = index::StripedWindows::kLaneWidth;
  const std::size_t len = window0.size();
  const std::size_t stride = windows.padded_size();

  for (std::size_t g = 0; g < stride; g += kLanes) {
    std::int16_t acc[kLanes] = {};
    std::int16_t best[kLanes] = {};
    std::int16_t vals[kLanes];
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint8_t* resid = windows.position(k) + g;
      const std::int8_t* row = rows.row(window0[k]);
      for (std::size_t l = 0; l < kLanes; ++l) vals[l] = row[resid[l]];
      // Split arithmetic loop: no loads with data-dependent addresses, so
      // it autovectorizes to SSE2/NEON saturating-free int16 ops (the
      // explicit clamp reproduces adds_epi16's upper saturation).
      for (std::size_t l = 0; l < kLanes; ++l) {
        int t = acc[l] + vals[l];
        t = std::min(t, 32767);
        t = std::max(t, 0);
        acc[l] = static_cast<std::int16_t>(t);
        best[l] = std::max(best[l], acc[l]);
      }
    }
    const std::size_t limit = std::min(kLanes, count - g);
    for (std::size_t l = 0; l < limit; ++l) scores[g + l] = best[l];
  }
}

void ungapped_score_rows_vs_striped(std::span<const std::uint8_t> window0,
                                    const SubstitutionRows& rows,
                                    const index::StripedWindows& windows,
                                    std::vector<int>& scores) {
  static const SimdTier tier = best_simd_tier();
  if (tier == SimdTier::kAvx2) {
    ungapped_score_rows_vs_striped_avx2(window0, rows, windows, scores);
    return;
  }
  ungapped_score_rows_vs_striped_portable(window0, rows, windows, scores);
}

#if !(defined(__x86_64__) || defined(__i386__)) || !defined(__GNUC__)

bool ungapped_avx2_available() noexcept { return false; }

void ungapped_score_rows_vs_striped_avx2(std::span<const std::uint8_t> window0,
                                         const SubstitutionRows& rows,
                                         const index::StripedWindows& windows,
                                         std::vector<int>& scores) {
  ungapped_score_rows_vs_striped_portable(window0, rows, windows, scores);
}

#endif

}  // namespace psc::align
