// SIMD step-3 gapped-extension kernels: the Gotoh affine-gap recurrence
// of align/gapped.hpp (X-drop half extension) and align/banded.hpp
// (banded window score), mirroring the ungapped_simd architecture -- an
// AVX2 tier in its own translation unit, a portable tier whose
// arithmetic loops autovectorize, and the scalar reference as the
// always-correct oracle. The AVX2 X-drop halves run 32 x 8-bit lanes in
// a relative domain; the AVX2 banded kernel and the whole portable tier
// run 16 x 16-bit biased lanes.
//
// Exactness. The scalar kernels prune with a *running* best updated in
// row-major scan order, and E(i,j) reads H(i,j-1) inside the same row --
// both look inherently sequential. Two transformations remove the
// dependencies without changing a single output bit:
//
//  * Lazy E. Because a gap's first residue costs open + extend >=
//    extend, an E opened from an E-derived H can never beat simply
//    extending that E. Hence, writing H'(j) = max(F(j), diag(j)) for
//    the candidate without its E term, E obeys the *candidate-only*
//    recurrence E(j) = max(H'(j-1) - (open+extend), E(j-1) - extend):
//    a decayed prefix-max over the row, computable with log-step
//    vector shift-maxes (decay k*extend for lane distance k).
//  * Prune-free rows. A row's candidates are computed ignoring the
//    X-drop prune. Any candidate whose value flows through a pruned
//    cell is itself strictly below best - x_drop (gap costs are
//    nonnegative and the running best never decreases), so it is
//    pruned either way. A cell is pruned exactly when it is below
//    P - x_drop, P being the inclusive prefix-max of the row's
//    candidates up to that cell, seeded with the running best: P is the
//    scalar scan's running best at that cell, because a cell that beats
//    the running best is never pruned and a pruned cell never raises
//    it. When the row's max beats the running best, the best moves to
//    the first cell equal to it, where the scalar strict '>' in scan
//    order last fired. Surviving values, live bounds and the best cell
//    are identical to the scalar interleaving.
//
// The 8-bit relative domain (AVX2 X-drop halves). With S the matrix's
// max score (at least 0) and the margin M = S + 1, every cell is stored
// as its value minus base = best - x_drop - M, saturating at 0 below.
// The running best is then always x_drop + M and the prune threshold
// the constant M. Three facts make the bytes exact:
//
//  * Nothing live is lost at 0. A stored 0 stands for "at or below
//    base", i.e. at least M under the threshold; anything built from it
//    gains at most S < M (one diagonal step) before the next prune, so
//    it is pruned whatever its exact value. A diagonal built from the
//    sentinel is at most S, hence dead as well.
//  * Nothing saturates at the top. A previous-row cell is at most the
//    running best x_drop + M, so a diagonal sum before the bias-128
//    subtraction is at most x_drop + M + S + 128 and every candidate at
//    most x_drop + M + S. xdrop_u8_applicable requires the former to fit
//    255; configurations outside it run their halves on the portable
//    tier. A row raises the best by at most S < M.
//  * Prune once per row, fix up the rare rise. Each row prunes against
//    the best at its start (threshold M) and builds its max with one
//    vector max per block. When the row max does not beat the best, P
//    is that best in every cell and the prune was exact. Otherwise
//    (6.7% of rows in the batch workload) a fix-up pass recomputes P by
//    prefix max, prunes the cells below P - x_drop that the optimistic
//    pass kept, takes the live bounds and the first cell equal to the
//    row max, and rebases h and f down by the rise so the new best is
//    stored at x_drop + M again. A value the rebase drops to 0 lay at
//    or below the new base: hopeless, as above.
//
// The AVX2 X-drop tier is a row stepper: GappedExtender::extend runs
// the backward and forward halves of an anchor one row each in turn, so
// their independent dependency chains overlap. The backward half reads
// its prefixes in place from the anchor backwards; its DP rows and
// subject buffer live in an XdropScratch the caller reuses.
//
// The 16-bit kernels store values in a bias-32768 unsigned domain
// where 0 doubles as the -inf sentinel: saturating unsigned subtraction
// makes "sentinel minus gap cost" stay sentinel for free, and the zero
// fill of a lane shift is exactly the sentinel. Whenever the running
// best nears the top of that range (the 16-bit overflow guard), the
// kernel returns nullopt and the dispatcher re-runs the whole call (for
// extend, that half) through the scalar reference -- so saturation can
// only ever cost speed, never a bit of output.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "align/cpu_features.hpp"
#include "align/gapped.hpp"
#include "bio/substitution_matrix.hpp"

namespace psc::align {

/// Step-3 kernel selection (--step3-kernel). All kernels are
/// bit-identical (the 16-bit kernels fall back to scalar on the rare
/// overflow guard; the 8-bit X-drop halves cannot overflow), so this is
/// purely a speed/diagnostic knob.
enum class GappedKernel {
  kAuto,      ///< fastest applicable tier for this CPU/matrix/params
  kScalar,    ///< align::xdrop_gapped_half / align::banded_window_score
  kPortable,  ///< 16-bit biased lanes, plain C++ (autovectorizes)
  kAvx2,      ///< 256-bit AVX2 tier (x86 only): 8-bit X-drop halves,
              ///< 16-bit banded windows
};

const char* gapped_kernel_name(GappedKernel kernel) noexcept;

/// Parses "auto" | "scalar" | "portable" | "avx2"; nullopt otherwise.
std::optional<GappedKernel> parse_gapped_kernel(std::string_view name) noexcept;

/// Substitution matrix repacked for the SIMD kernels: 32 rows of 32
/// bias-128 bytes (score + 128), one padded row per residue, so the
/// AVX2 tier's row lookup is two pshufb shuffles and the portable
/// tier's a single byte load. Rows and columns beyond the alphabet clamp
/// to the matrix's own out-of-alphabet behaviour (score() clamps to X).
class GappedSimdMatrix {
 public:
  static constexpr std::size_t kStride = 32;

  GappedSimdMatrix() = default;
  explicit GappedSimdMatrix(const bio::SubstitutionMatrix& matrix) {
    build(matrix);
  }

  /// True when every matrix cell fits int8 (the bias-128 byte rows are
  /// exact).
  static bool representable(const bio::SubstitutionMatrix& matrix) noexcept {
    return matrix.min_score() >= -128 && matrix.max_score() <= 127;
  }

  /// Fills the padded rows; requires representable(matrix).
  void build(const bio::SubstitutionMatrix& matrix);

  /// The matrix's largest score, clamped below at 0: the most one
  /// diagonal step can add (the 8-bit tier's margin is this + 1).
  int max_gain() const noexcept { return max_gain_; }

  /// Bias-128 row for residue `a` (32 bytes). Encoded residues are < 32
  /// everywhere in this codebase; larger values clamp to the X row.
  const std::uint8_t* row(std::uint8_t a) const noexcept {
    const std::size_t r = a < kStride ? a : bio::kProteinAlphabetSize;
    return data_.data() + r * kStride;
  }

 private:
  std::array<std::uint8_t, kStride * kStride> data_{};
  int max_gain_ = 0;
};

/// True when the 16-bit tiers are exact for this configuration: matrix
/// cells fit int8, gap costs are nonnegative and small enough for the
/// lane decays, and the X-drop threshold leaves the biased domain's
/// low range free for the sentinel (see the header comment).
bool gapped_simd_applicable(const bio::SubstitutionMatrix& matrix,
                            const GapParams& params) noexcept;

/// True when the 8-bit X-drop halves are exact as well: the 16-bit
/// conditions hold and x_drop + M + S + 128 <= 255, S being the max
/// score (at least 0) and M = S + 1 the margin (see the header
/// comment). Under BLOSUM62 (S = 11) that is x_drop <= 104.
bool xdrop_u8_applicable(const bio::SubstitutionMatrix& matrix,
                         const GapParams& params) noexcept;

/// True when the AVX2 tier can run on this CPU.
bool gapped_avx2_available() noexcept;

/// Resolves `requested` against the configuration and CPU: kAuto picks
/// the best applicable tier; explicit SIMD requests degrade gracefully
/// (kAvx2 -> kPortable without the ISA, any SIMD -> kScalar when the
/// configuration is out of the exact range).
GappedKernel resolve_gapped_kernel(GappedKernel requested,
                                   const bio::SubstitutionMatrix& matrix,
                                   const GapParams& params) noexcept;

/// Grow-only DP rows and subject buffers of the 8-bit X-drop tier, one
/// set per half of an extension. Keep one per worker thread and pass it
/// to every call: the buffers are reused and never shrunk, and no call
/// reads a cell an earlier call left behind.
struct XdropScratch {
  std::array<std::vector<std::uint8_t>, 2> halves;
};

/// One X-drop half's inputs, read in place: rows run along `a` and
/// columns along `b`, from their first residue forwards or, when
/// `backward`, from their last residue backwards -- the backward half
/// of an extension, whose prefixes end at the anchor.
struct XdropHalf {
  std::span<const std::uint8_t> a, b;
  bool backward = false;
};

// ---- raw tier entry points (tests and benches drive these directly) ----

/// 16-bit portable tier; nullopt when the overflow guard trips (running
/// best within 256 of +32767), and callers re-run the scalar reference.
std::optional<HalfExtension> xdrop_gapped_half_portable(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const GappedSimdMatrix& rows, const GapParams& params);

/// 8-bit AVX2 tier: always exact, no overflow guard. Requires
/// xdrop_u8_applicable for the matrix behind `rows` and
/// gapped_avx2_available(); non-x86 builds throw std::logic_error.
HalfExtension xdrop_gapped_half_avx2(const XdropHalf& half,
                                     const GappedSimdMatrix& rows,
                                     const GapParams& params,
                                     XdropScratch& scratch);

/// Both halves of one extension on the 8-bit AVX2 tier, advanced one DP
/// row each in turn so their independent dependency chains overlap.
/// Same results as two xdrop_gapped_half_avx2 calls; same requirements.
std::array<HalfExtension, 2> xdrop_gapped_halves_avx2(
    const XdropHalf& first, const XdropHalf& second,
    const GappedSimdMatrix& rows, const GapParams& params,
    XdropScratch& scratch);

std::optional<int> banded_window_score_portable(
    std::span<const std::uint8_t> s0, std::span<const std::uint8_t> s1,
    std::size_t band, const GapParams& params, const GappedSimdMatrix& rows);

std::optional<int> banded_window_score_avx2(std::span<const std::uint8_t> s0,
                                            std::span<const std::uint8_t> s1,
                                            std::size_t band,
                                            const GapParams& params,
                                            const GappedSimdMatrix& rows);

/// One resolved step-3 engine: matrix + gap params + kernel, built once
/// per run and shared read-only across worker threads (the methods are
/// const; DP state lives in the call or in the caller's XdropScratch).
class GappedExtender {
 public:
  GappedExtender(const bio::SubstitutionMatrix& matrix,
                 const GapParams& params,
                 GappedKernel requested = GappedKernel::kAuto);

  /// The kernel calls actually dispatch to (never kAuto).
  GappedKernel kernel() const noexcept { return kernel_; }
  /// The tier the X-drop halves run on: kernel(), except that kAvx2
  /// becomes kPortable when xdrop_u8_applicable fails.
  GappedKernel xdrop_kernel() const noexcept { return xdrop_kernel_; }
  const GapParams& params() const noexcept { return params_; }
  const bio::SubstitutionMatrix& matrix() const noexcept { return *matrix_; }

  /// Dispatched xdrop_gapped_half; bit-identical to the scalar kernel.
  HalfExtension half(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b) const;

  /// Dispatched banded_window_score; bit-identical to the scalar kernel.
  int banded_window(std::span<const std::uint8_t> s0,
                    std::span<const std::uint8_t> s1, std::size_t band) const;

  /// Dispatched xdrop_gapped_extend: same seed scoring, half-extension
  /// combination and traceback re-alignment as the scalar entry point,
  /// with the halves running on xdrop_kernel() and their DP buffers in
  /// `scratch` (one per calling thread).
  Alignment extend(std::span<const std::uint8_t> s0,
                   std::span<const std::uint8_t> s1, std::size_t anchor0,
                   std::size_t anchor1, std::size_t seed_width,
                   bool with_traceback, XdropScratch& scratch) const;

  /// extend() with a scratch of its own.
  Alignment extend(std::span<const std::uint8_t> s0,
                   std::span<const std::uint8_t> s1, std::size_t anchor0,
                   std::size_t anchor1, std::size_t seed_width,
                   bool with_traceback) const;

 private:
  const bio::SubstitutionMatrix* matrix_;
  GapParams params_;
  GappedKernel kernel_;
  GappedKernel xdrop_kernel_;
  GappedSimdMatrix rows_;
};

}  // namespace psc::align
