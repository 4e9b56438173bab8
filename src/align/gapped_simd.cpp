#include "align/gapped_simd.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "align/banded.hpp"

namespace psc::align {

// Bias and guard constants of the 16-bit domain (see the header): value
// v is stored as v + 32768, 0 is the -inf sentinel, and a call falls
// back to scalar once the running best is within 256 of the top --
// every per-cell gain is at most the max matrix score (<= 127) plus the
// bias-128 trick's slack, so guarded inputs can never saturate inside a
// row.
namespace {

constexpr std::uint32_t kBias = 32768;
constexpr int kGuardBest = 32767 - 256;

// Saturating unsigned-16 arithmetic on uint32 carriers: exactly
// _mm256_subs_epu16 / _mm256_adds_epu16.
inline std::uint32_t sub_sat(std::uint32_t v, std::uint32_t c) {
  return v > c ? v - c : 0;
}
inline std::uint32_t add_sat(std::uint32_t v, std::uint32_t c) {
  const std::uint32_t s = v + c;
  return s > 65535 ? 65535 : s;
}

}  // namespace

const char* gapped_kernel_name(GappedKernel kernel) noexcept {
  switch (kernel) {
    case GappedKernel::kAuto: return "auto";
    case GappedKernel::kScalar: return "scalar";
    case GappedKernel::kPortable: return "portable";
    case GappedKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

std::optional<GappedKernel> parse_gapped_kernel(
    std::string_view name) noexcept {
  if (name == "auto") return GappedKernel::kAuto;
  if (name == "scalar") return GappedKernel::kScalar;
  if (name == "portable") return GappedKernel::kPortable;
  if (name == "avx2") return GappedKernel::kAvx2;
  return std::nullopt;
}

void GappedSimdMatrix::build(const bio::SubstitutionMatrix& matrix) {
  for (std::size_t a = 0; a < kStride; ++a) {
    for (std::size_t b = 0; b < kStride; ++b) {
      const int s = matrix.score(static_cast<bio::Residue>(a),
                                 static_cast<bio::Residue>(b));
      data_[a * kStride + b] = static_cast<std::uint8_t>(s + 128);
    }
  }
  max_gain_ = std::max(0, static_cast<int>(matrix.max_score()));
}

bool gapped_simd_applicable(const bio::SubstitutionMatrix& matrix,
                            const GapParams& params) noexcept {
  if (!GappedSimdMatrix::representable(matrix)) return false;
  // Lazy E needs open >= 0 (open + extend >= extend); the lane decays
  // need extend * 8 to fit comfortably; the prune threshold best -
  // x_drop must stay clear of the sentinel at the bottom of the biased
  // domain (best >= 0 throughout, so threshold >= 32768 - x_drop).
  if (params.open < 0 || params.extend < 0 || params.extend > 255) {
    return false;
  }
  if (params.open + params.extend > 2048) return false;
  return params.x_drop >= 0 && params.x_drop <= 28000;
}

bool xdrop_u8_applicable(const bio::SubstitutionMatrix& matrix,
                         const GapParams& params) noexcept {
  if (!gapped_simd_applicable(matrix, params)) return false;
  const int gain = std::max(0, static_cast<int>(matrix.max_score()));
  const int margin = gain + 1;
  return params.x_drop + margin + gain + 128 <= 255;
}

GappedKernel resolve_gapped_kernel(GappedKernel requested,
                                   const bio::SubstitutionMatrix& matrix,
                                   const GapParams& params) noexcept {
  switch (requested) {
    case GappedKernel::kScalar:
      return GappedKernel::kScalar;
    case GappedKernel::kPortable:
      return gapped_simd_applicable(matrix, params) ? GappedKernel::kPortable
                                                    : GappedKernel::kScalar;
    case GappedKernel::kAuto:
    case GappedKernel::kAvx2:
      if (!gapped_simd_applicable(matrix, params)) return GappedKernel::kScalar;
      return gapped_avx2_available() ? GappedKernel::kAvx2
                                     : GappedKernel::kPortable;
  }
  return GappedKernel::kScalar;
}

std::optional<HalfExtension> xdrop_gapped_half_portable(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const GappedSimdMatrix& rows, const GapParams& params) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  HalfExtension out;
  if (n == 0 || m == 0) return out;

  const auto go = static_cast<std::uint32_t>(params.open + params.extend);
  const auto ge = static_cast<std::uint32_t>(params.extend);
  const int x = params.x_drop;

  // Column j lives at index j + 1; index 0 is a permanent sentinel so
  // the j-1 reads of the diagonal and E terms never branch.
  std::vector<std::uint16_t> h_prev(m + 2, 0), f_prev(m + 2, 0);
  std::vector<std::uint16_t> h_cur(m + 2, 0), f_cur(m + 2, 0);

  int best = 0;
  std::size_t best_i = 0, best_j = 0;

  // Row 0: gaps in sequence a only. The first below-threshold value is
  // stored before the break, exactly like the scalar kernel (row 1 may
  // read it as a diagonal/F source).
  std::size_t lo = 0, hi = 0;
  h_prev[1] = kBias;
  {
    std::uint32_t e = 0;
    for (std::size_t j = 1; j <= m; ++j) {
      e = std::max(sub_sat(h_prev[j], go), sub_sat(e, ge));
      h_prev[j + 1] = static_cast<std::uint16_t>(e);
      if (e < kBias - static_cast<std::uint32_t>(x)) break;
      hi = j;
    }
  }

  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), std::uint16_t{0});
    std::fill(f_cur.begin(), f_cur.end(), std::uint16_t{0});
    const std::size_t row_lo = lo;
    const std::size_t row_hi = std::min(hi + 1, m);
    const std::uint8_t* row = rows.row(a[i - 1]);

    // E and the previous column's *candidate* (pre-prune) H: the lazy-E
    // argument in the header makes this exactly the scalar chain.
    std::uint32_t e = 0;
    std::uint32_t prev_cand = 0;
    std::size_t new_lo = row_hi + 1;
    std::size_t new_hi = 0;
    bool any_live = false;
    std::uint32_t threshold =
        kBias + static_cast<std::uint32_t>(best) - static_cast<std::uint32_t>(x);
    for (std::size_t j = row_lo; j <= row_hi; ++j) {
      const std::uint32_t fv =
          std::max(sub_sat(h_prev[j + 1], go), sub_sat(f_prev[j + 1], ge));
      f_cur[j + 1] = static_cast<std::uint16_t>(fv);
      std::uint32_t value = fv;
      if (j > 0) {
        e = std::max(sub_sat(prev_cand, go), sub_sat(e, ge));
        value = std::max(value, e);
        const std::uint32_t diag =
            sub_sat(add_sat(h_prev[j], row[b[j - 1]]), 128);
        value = std::max(value, diag);
      }
      prev_cand = value;
      if (value < threshold) continue;  // h_cur already sentinel
      h_cur[j + 1] = static_cast<std::uint16_t>(value);
      any_live = true;
      new_lo = std::min(new_lo, j);
      new_hi = j;
      if (value > kBias + static_cast<std::uint32_t>(best)) {
        best = static_cast<int>(value - kBias);
        best_i = i;
        best_j = j;
        threshold = value - static_cast<std::uint32_t>(x);
      }
    }
    if (!any_live) break;
    if (best >= kGuardBest) return std::nullopt;
    lo = new_lo;
    hi = new_hi;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }

  out.score = best;
  out.end0 = best_i;
  out.end1 = best_j;
  return out;
}

std::optional<int> banded_window_score_portable(
    std::span<const std::uint8_t> s0, std::span<const std::uint8_t> s1,
    std::size_t band, const GapParams& params, const GappedSimdMatrix& rows) {
  const std::size_t n = std::min(s0.size(), s1.size());
  if (n == 0) return 0;
  const auto go = static_cast<std::uint32_t>(params.open + params.extend);
  const auto ge = static_cast<std::uint32_t>(params.extend);

  std::vector<std::uint16_t> h_prev(n + 2, 0), f_prev(n + 2, 0);
  std::vector<std::uint16_t> h_cur(n + 2, 0), f_cur(n + 2, 0);

  std::uint32_t best = kBias;  // local alignment: best >= 0
  for (std::size_t j = 0; j <= std::min(band, n); ++j) {
    h_prev[j + 1] = kBias;
  }

  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), std::uint16_t{0});
    std::fill(f_cur.begin(), f_cur.end(), std::uint16_t{0});
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n, i + band);
    const std::uint8_t* row = rows.row(s0[i - 1]);

    std::uint32_t e = 0;
    std::uint32_t prev_stored = 0;  // H(i, j-1), clamped: the E source
    for (std::size_t j = lo; j <= hi; ++j) {
      const std::uint32_t fv =
          std::max(sub_sat(h_prev[j + 1], go), sub_sat(f_prev[j + 1], ge));
      f_cur[j + 1] = static_cast<std::uint16_t>(fv);
      std::uint32_t value = fv;
      if (j > 0) {
        e = std::max(sub_sat(prev_stored, go), sub_sat(e, ge));
        value = std::max(value, e);
        const std::uint32_t diag =
            sub_sat(add_sat(h_prev[j], row[s1[j - 1]]), 128);
        value = std::max(value, diag);
      }
      const std::uint32_t stored = std::max(value, kBias);  // local clamp
      h_cur[j + 1] = static_cast<std::uint16_t>(stored);
      prev_stored = stored;
      if (stored > best) best = stored;
    }
    if (static_cast<int>(best - kBias) >= kGuardBest) return std::nullopt;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return static_cast<int>(best - kBias);
}

GappedExtender::GappedExtender(const bio::SubstitutionMatrix& matrix,
                               const GapParams& params, GappedKernel requested)
    : matrix_(&matrix),
      params_(params),
      kernel_(resolve_gapped_kernel(requested, matrix, params)),
      xdrop_kernel_(kernel_ == GappedKernel::kAvx2 &&
                            !xdrop_u8_applicable(matrix, params)
                        ? GappedKernel::kPortable
                        : kernel_) {
  if (kernel_ != GappedKernel::kScalar) rows_.build(matrix);
}

HalfExtension GappedExtender::half(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b) const {
  switch (xdrop_kernel_) {
    case GappedKernel::kAvx2: {
      XdropScratch scratch;
      return xdrop_gapped_half_avx2({a, b}, rows_, params_, scratch);
    }
    case GappedKernel::kPortable:
      if (const auto r = xdrop_gapped_half_portable(a, b, rows_, params_)) {
        return *r;
      }
      break;
    default:
      break;
  }
  return xdrop_gapped_half(a, b, *matrix_, params_);
}

int GappedExtender::banded_window(std::span<const std::uint8_t> s0,
                                  std::span<const std::uint8_t> s1,
                                  std::size_t band) const {
  switch (kernel_) {
    case GappedKernel::kAvx2:
      if (const auto r = banded_window_score_avx2(s0, s1, band, params_,
                                                  rows_)) {
        return *r;
      }
      break;
    case GappedKernel::kPortable:
      if (const auto r = banded_window_score_portable(s0, s1, band, params_,
                                                      rows_)) {
        return *r;
      }
      break;
    default:
      break;
  }
  return banded_window_score(s0, s1, band, params_, *matrix_);
}

Alignment GappedExtender::extend(std::span<const std::uint8_t> s0,
                                 std::span<const std::uint8_t> s1,
                                 std::size_t anchor0, std::size_t anchor1,
                                 std::size_t seed_width,
                                 bool with_traceback) const {
  XdropScratch scratch;
  return extend(s0, s1, anchor0, anchor1, seed_width, with_traceback,
                scratch);
}

Alignment GappedExtender::extend(std::span<const std::uint8_t> s0,
                                 std::span<const std::uint8_t> s1,
                                 std::size_t anchor0, std::size_t anchor1,
                                 std::size_t seed_width, bool with_traceback,
                                 XdropScratch& scratch) const {
  if (kernel_ == GappedKernel::kScalar) {
    return xdrop_gapped_extend(s0, s1, anchor0, anchor1, seed_width, *matrix_,
                               params_, with_traceback);
  }
  if (anchor0 + seed_width > s0.size() || anchor1 + seed_width > s1.size()) {
    throw std::out_of_range("GappedExtender::extend: anchor outside sequences");
  }

  int seed_score = 0;
  for (std::size_t k = 0; k < seed_width; ++k) {
    seed_score += matrix_->score(s0[anchor0 + k], s1[anchor1 + k]);
  }

  const auto fwd0 = s0.subspan(anchor0 + seed_width);
  const auto fwd1 = s1.subspan(anchor1 + seed_width);

  HalfExtension back, fwd;
  if (xdrop_kernel_ == GappedKernel::kAvx2) {
    // Lockstep halves; the backward one reads the prefixes from the
    // anchor backwards in place.
    const auto halves = xdrop_gapped_halves_avx2(
        {s0.first(anchor0), s1.first(anchor1), /*backward=*/true},
        {fwd0, fwd1}, rows_, params_, scratch);
    back = halves[0];
    fwd = halves[1];
  } else {
    std::vector<std::uint8_t> rev0(
        s0.begin(), s0.begin() + static_cast<std::ptrdiff_t>(anchor0));
    std::vector<std::uint8_t> rev1(
        s1.begin(), s1.begin() + static_cast<std::ptrdiff_t>(anchor1));
    std::reverse(rev0.begin(), rev0.end());
    std::reverse(rev1.begin(), rev1.end());
    back = half(rev0, rev1);
    fwd = half(fwd0, fwd1);
  }

  Alignment out;
  out.score = back.score + seed_score + fwd.score;
  out.begin0 = anchor0 - back.end0;
  out.begin1 = anchor1 - back.end1;
  out.end0 = anchor0 + seed_width + fwd.end0;
  out.end1 = anchor1 + seed_width + fwd.end1;

  if (with_traceback) {
    // Same re-alignment as the scalar entry point: the halves only pick
    // the region, so identical (score, end0, end1) triples make the
    // traceback identical for free.
    const auto a = s0.subspan(out.begin0, out.end0 - out.begin0);
    const auto b = s1.subspan(out.begin1, out.end1 - out.begin1);
    Alignment inner = smith_waterman(a, b, *matrix_, params_);
    out.score = std::max(out.score, inner.score);
    out.ops = std::move(inner.ops);
    const std::size_t b0 = out.begin0;
    const std::size_t b1 = out.begin1;
    out.begin0 = b0 + inner.begin0;
    out.begin1 = b1 + inner.begin1;
    out.end0 = b0 + inner.end0;
    out.end1 = b1 + inner.end1;
  }
  return out;
}

#if !(defined(__x86_64__) || defined(__i386__)) || !defined(__GNUC__)

bool gapped_avx2_available() noexcept { return false; }

HalfExtension xdrop_gapped_half_avx2(const XdropHalf&,
                                     const GappedSimdMatrix&,
                                     const GapParams&, XdropScratch&) {
  throw std::logic_error("xdrop_gapped_half_avx2: AVX2 tier not built");
}

std::array<HalfExtension, 2> xdrop_gapped_halves_avx2(
    const XdropHalf&, const XdropHalf&, const GappedSimdMatrix&,
    const GapParams&, XdropScratch&) {
  throw std::logic_error("xdrop_gapped_halves_avx2: AVX2 tier not built");
}

std::optional<int> banded_window_score_avx2(std::span<const std::uint8_t> s0,
                                            std::span<const std::uint8_t> s1,
                                            std::size_t band,
                                            const GapParams& params,
                                            const GappedSimdMatrix& rows) {
  return banded_window_score_portable(s0, s1, band, params, rows);
}

#endif  // !x86 || !GNUC

}  // namespace psc::align
