// Property tests for the vectorized step-3 kernel layer: bit-for-bit
// equivalence of the scalar, portable, and AVX2 gapped kernels over
// random and homologous pairs, band widths, X-drop thresholds and gap
// cost grids; crafted overflow cases that must trip the portable tier's
// 16-bit saturation fallback; and the 8-bit X-drop tier's edges (the
// fix-up row, ties, the range limits, reused scratch, empty halves).
#include "align/gapped_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "bio/alphabet.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::align {
namespace {

std::vector<std::uint8_t> random_protein(std::size_t length,
                                         util::Xoshiro256& rng) {
  std::vector<std::uint8_t> out(length);
  for (auto& r : out) {
    r = static_cast<std::uint8_t>(rng.bounded(20));  // real amino acids
  }
  return out;
}

std::vector<std::uint8_t> residues(const bio::Sequence& seq) {
  return {seq.residues().begin(), seq.residues().end()};
}

std::vector<std::uint8_t> reversed(const std::vector<std::uint8_t>& v) {
  return {v.rbegin(), v.rend()};
}

void expect_same_half(const HalfExtension& want, const HalfExtension& got,
                      const std::string& label) {
  EXPECT_EQ(want.score, got.score) << label;
  EXPECT_EQ(want.end0, got.end0) << label;
  EXPECT_EQ(want.end1, got.end1) << label;
}

void expect_same_alignment(const Alignment& want, const Alignment& got,
                           const std::string& label) {
  EXPECT_EQ(want.score, got.score) << label;
  EXPECT_EQ(want.begin0, got.begin0) << label;
  EXPECT_EQ(want.begin1, got.begin1) << label;
  EXPECT_EQ(want.end0, got.end0) << label;
  EXPECT_EQ(want.end1, got.end1) << label;
  EXPECT_EQ(want.ops, got.ops) << label;
}

/// True when the 8-bit AVX2 X-drop tier can run this configuration here.
bool u8_tier_runs(const bio::SubstitutionMatrix& matrix,
                  const GapParams& params) {
  return gapped_avx2_available() && xdrop_u8_applicable(matrix, params);
}

/// Scalar vs portable vs AVX2 (when the CPU has it) for both kernels.
void expect_kernels_agree(const std::vector<std::uint8_t>& a,
                          const std::vector<std::uint8_t>& b,
                          const bio::SubstitutionMatrix& matrix,
                          const GapParams& params, const std::string& label) {
  ASSERT_TRUE(gapped_simd_applicable(matrix, params)) << label;
  const GappedSimdMatrix rows(matrix);

  const HalfExtension scalar = xdrop_gapped_half(a, b, matrix, params);
  const auto portable = xdrop_gapped_half_portable(a, b, rows, params);
  ASSERT_TRUE(portable.has_value()) << label;
  expect_same_half(scalar, *portable, label);
  if (u8_tier_runs(matrix, params)) {
    XdropScratch scratch;
    expect_same_half(scalar,
                     xdrop_gapped_half_avx2({a, b}, rows, params, scratch),
                     label + " u8");
  }
  // The AVX2 extender's halves: 8-bit in range, portable outside it.
  expect_same_half(
      scalar, GappedExtender(matrix, params, GappedKernel::kAvx2).half(a, b),
      label + " extender");

  for (const std::size_t band : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                 std::size_t{16}, std::size_t{100}}) {
    const int scalar_banded = banded_window_score(a, b, band, params, matrix);
    const auto portable_banded =
        banded_window_score_portable(a, b, band, params, rows);
    ASSERT_TRUE(portable_banded.has_value()) << label << " band=" << band;
    EXPECT_EQ(scalar_banded, *portable_banded) << label << " band=" << band;
    if (gapped_avx2_available()) {
      const auto avx2_banded =
          banded_window_score_avx2(a, b, band, params, rows);
      ASSERT_TRUE(avx2_banded.has_value()) << label << " band=" << band;
      EXPECT_EQ(scalar_banded, *avx2_banded) << label << " band=" << band;
    }
  }
}

TEST(GappedSimd, RandomPairsAgreeAcrossParameterGrid) {
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  util::Xoshiro256 rng(7);
  for (const std::size_t len0 : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                 std::size_t{64}, std::size_t{300}}) {
    for (const std::size_t len1 :
         {std::size_t{0}, std::size_t{5}, std::size_t{64}, std::size_t{300}}) {
      const auto a = random_protein(len0, rng);
      const auto b = random_protein(len1, rng);
      for (const int x_drop : {5, 38, 200}) {
        for (const auto& [open, extend] :
             std::vector<std::pair<int, int>>{{11, 1}, {5, 2}, {0, 1}}) {
          GapParams params;
          params.open = open;
          params.extend = extend;
          params.x_drop = x_drop;
          expect_kernels_agree(a, b, matrix, params,
                               "len0=" + std::to_string(len0) +
                                   " len1=" + std::to_string(len1) +
                                   " x=" + std::to_string(x_drop) +
                                   " open=" + std::to_string(open));
        }
      }
    }
  }
}

TEST(GappedSimd, HomologousPairsAgree) {
  // Mutated copies give long high-scoring extensions with real gaps --
  // the path shape the X-drop band actually follows in the pipeline.
  util::Xoshiro256 rng(13);
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 6; ++trial) {
    const bio::Sequence base =
        sim::generate_protein("p", 150 + rng.bounded(200), rng);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.05 + 0.05 * static_cast<double>(trial);
    divergence.indel_rate = 0.01;
    const bio::Sequence mutated = sim::mutate_protein(base, divergence, rng);
    GapParams params;  // BLOSUM62 defaults
    expect_kernels_agree(residues(base), residues(mutated), matrix, params,
                         "homologous trial=" + std::to_string(trial));
    GapParams wide = params;
    wide.x_drop = 500;
    expect_kernels_agree(residues(base), residues(mutated), matrix, wide,
                         "homologous wide trial=" + std::to_string(trial));
  }
}

TEST(GappedSimd, OverflowTripsFallbackAndStaysExact) {
  // ~3100 tryptophans self-aligned score 11 per column under BLOSUM62:
  // past +32k, so the 16-bit kernels (the portable tier, the banded
  // kernels) must refuse (nullopt) rather than saturate, and the
  // extender must transparently re-run scalar. x_drop = 28000 is far
  // outside the 8-bit range, so the X-drop halves resolve to portable.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const std::vector<std::uint8_t> w(
      3100, bio::Sequence::protein_from_letters("w", "W").residues()[0]);
  GapParams params;
  params.x_drop = 28000;  // keep the whole band alive to the end
  ASSERT_TRUE(gapped_simd_applicable(matrix, params));
  ASSERT_FALSE(xdrop_u8_applicable(matrix, params));
  const GappedSimdMatrix rows(matrix);

  EXPECT_FALSE(xdrop_gapped_half_portable(w, w, rows, params).has_value());
  EXPECT_FALSE(banded_window_score_portable(w, w, 4, params, rows).has_value());
  if (gapped_avx2_available()) {
    EXPECT_FALSE(banded_window_score_avx2(w, w, 4, params, rows).has_value());
  }

  const HalfExtension scalar = xdrop_gapped_half(w, w, matrix, params);
  EXPECT_GT(scalar.score, 32767);
  for (const GappedKernel kernel :
       {GappedKernel::kPortable, GappedKernel::kAvx2, GappedKernel::kAuto}) {
    const GappedExtender extender(matrix, params, kernel);
    EXPECT_EQ(extender.xdrop_kernel(), GappedKernel::kPortable)
        << gapped_kernel_name(kernel);
    const HalfExtension half = extender.half(w, w);
    EXPECT_EQ(scalar.score, half.score) << gapped_kernel_name(kernel);
    EXPECT_EQ(scalar.end0, half.end0) << gapped_kernel_name(kernel);
    EXPECT_EQ(scalar.end1, half.end1) << gapped_kernel_name(kernel);
    EXPECT_EQ(banded_window_score(w, w, 4, params, matrix),
              extender.banded_window(w, w, 4))
        << gapped_kernel_name(kernel);
  }
}

TEST(GappedSimd, NearOverflowScoresStayExact) {
  // Scores just under the guard must be produced by the portable tier
  // itself (no fallback): 2800 * 11 = 30800 < 32767 - 256.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const std::vector<std::uint8_t> w(
      2800, bio::Sequence::protein_from_letters("w", "W").residues()[0]);
  GapParams params;
  params.x_drop = 28000;
  const GappedSimdMatrix rows(matrix);
  const HalfExtension scalar = xdrop_gapped_half(w, w, matrix, params);
  ASSERT_LT(scalar.score, 32767 - 256);
  const auto portable = xdrop_gapped_half_portable(w, w, rows, params);
  ASSERT_TRUE(portable.has_value());
  expect_same_half(scalar, *portable, "portable");
}

/// Every kernel's extend() against the scalar xdrop_gapped_extend, with
/// and (when `traceback`) without re-alignment.
void expect_extend_matches(
    const std::vector<std::uint8_t>& s0, const std::vector<std::uint8_t>& s1,
    std::size_t anchor0, std::size_t anchor1, const GapParams& params,
    const std::string& label, bool traceback = true,
    const bio::SubstitutionMatrix& matrix =
        bio::SubstitutionMatrix::blosum62()) {
  for (const bool with_traceback : {false, true}) {
    if (with_traceback && !traceback) continue;
    const Alignment scalar = xdrop_gapped_extend(
        s0, s1, anchor0, anchor1, 4, matrix, params, with_traceback);
    for (const GappedKernel kernel :
         {GappedKernel::kScalar, GappedKernel::kPortable, GappedKernel::kAvx2,
          GappedKernel::kAuto}) {
      const GappedExtender extender(matrix, params, kernel);
      const Alignment got =
          extender.extend(s0, s1, anchor0, anchor1, 4, with_traceback);
      expect_same_alignment(scalar, got,
                            label + " " + gapped_kernel_name(kernel) +
                                " tb=" + std::to_string(with_traceback));
    }
  }
}

TEST(GappedSimd, ExtendMatchesScalarIncludingTraceback) {
  util::Xoshiro256 rng(29);
  const GapParams params;
  for (int trial = 0; trial < 5; ++trial) {
    const bio::Sequence base = sim::generate_protein("p", 220, rng);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.1;
    divergence.indel_rate = 0.02;
    const bio::Sequence mutated = sim::mutate_protein(base, divergence, rng);
    const auto s0 = residues(base);
    const auto s1 = residues(mutated);
    const std::size_t anchor = 80 + rng.bounded(40);
    if (anchor + 4 > std::min(s0.size(), s1.size())) continue;
    expect_extend_matches(s0, s1, anchor, anchor, params,
                          "trial=" + std::to_string(trial));
  }
}

/// Residues over the whole encoded protein alphabet, including the
/// ambiguity codes B and Z, X and the stop '*' past the 20 amino acids.
std::vector<std::uint8_t> random_codes(std::size_t length,
                                       util::Xoshiro256& rng) {
  std::vector<std::uint8_t> out(length);
  for (auto& r : out) {
    r = static_cast<std::uint8_t>(rng.bounded(bio::kProteinAlphabetSize));
  }
  return out;
}

/// A copy of `a` with a fraction of residues replaced and a few residues
/// dropped, so extensions run long and rows grow many blocks wide.
std::vector<std::uint8_t> diverged(const std::vector<std::uint8_t>& a,
                                   util::Xoshiro256& rng) {
  std::vector<std::uint8_t> out;
  for (const std::uint8_t r : a) {
    const std::uint64_t roll = rng.bounded(100);
    if (roll < 3) continue;
    out.push_back(roll < 30 ? static_cast<std::uint8_t>(
                                  rng.bounded(bio::kProteinAlphabetSize))
                            : r);
  }
  return out;
}

/// Scalar vs portable vs 8-bit AVX2 X-drop halves on (score, end0,
/// end1); on AVX2 also the lockstep pair entry point, run on (a, b)
/// beside (b, a) read backwards from reversed copies. Configurations
/// outside the 8-bit range check the AVX2 extender's portable halves.
void expect_halves_agree(const std::vector<std::uint8_t>& a,
                         const std::vector<std::uint8_t>& b,
                         const bio::SubstitutionMatrix& matrix,
                         const GappedSimdMatrix& rows, const GapParams& params,
                         const std::string& label) {
  const HalfExtension scalar = xdrop_gapped_half(a, b, matrix, params);
  const auto portable = xdrop_gapped_half_portable(a, b, rows, params);
  ASSERT_TRUE(portable.has_value()) << label;
  expect_same_half(scalar, *portable, label);
  if (!u8_tier_runs(matrix, params)) {
    expect_same_half(
        scalar,
        GappedExtender(matrix, params, GappedKernel::kAvx2).half(a, b),
        label + " extender");
    return;
  }
  XdropScratch scratch;
  expect_same_half(scalar,
                   xdrop_gapped_half_avx2({a, b}, rows, params, scratch),
                   label + " u8");

  const HalfExtension swapped = xdrop_gapped_half(b, a, matrix, params);
  const auto rb = reversed(b);
  const auto ra = reversed(a);
  const auto pair = xdrop_gapped_halves_avx2(
      {a, b}, {rb, ra, /*backward=*/true}, rows, params, scratch);
  expect_same_half(scalar, pair[0], label + " lockstep");
  expect_same_half(swapped, pair[1], label + " lockstep swapped backward");
}

TEST(GappedSimd, ManyPairSweepAgreesOnEveryTier) {
  // Lengths straddle the 16-lane block edges; each cell of the grid sees
  // unrelated pairs (halves die after tens of rows, the pipeline's
  // regime) and diverged copies (long halves, wide rows).
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GappedSimdMatrix rows(matrix);
  util::Xoshiro256 rng(41);
  const std::size_t lengths[] = {1, 15, 16, 17, 31, 33, 100, 300};
  for (const std::size_t len0 : lengths) {
    for (const std::size_t len1 : lengths) {
      for (const int x_drop : {5, 16, 38, 200}) {
        for (const auto& [open, extend] :
             std::vector<std::pair<int, int>>{{11, 1}, {5, 2}, {0, 1}}) {
          GapParams params;
          params.open = open;
          params.extend = extend;
          params.x_drop = x_drop;
          for (int trial = 0; trial < 6; ++trial) {
            const auto a = random_codes(len0, rng);
            auto b =
                trial % 2 == 0 ? random_codes(len1, rng) : diverged(a, rng);
            b.resize(len1, static_cast<std::uint8_t>(rng.bounded(24)));
            expect_halves_agree(a, b, matrix, rows, params,
                                "len0=" + std::to_string(len0) +
                                    " len1=" + std::to_string(len1) +
                                    " x=" + std::to_string(x_drop) +
                                    " open=" + std::to_string(open) +
                                    " ext=" + std::to_string(extend) +
                                    " trial=" + std::to_string(trial));
          }
        }
      }
    }
  }
}

TEST(GappedSimd, RepeatedRowMaxKeepsFirstOccurrence) {
  // Low-complexity and periodic sequences tie the row max across
  // columns (and, with free gaps, carry it along whole rows and down
  // whole columns), so best_j must be the first column reaching the
  // max and best_i the first row that raised the best.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GappedSimdMatrix rows(matrix);
  util::Xoshiro256 rng(43);
  const auto code = [](char letter) {
    const std::string one(1, letter);
    return bio::Sequence::protein_from_letters("r", one).residues()[0];
  };
  std::vector<std::vector<std::uint8_t>> sequences;
  for (const std::string motif : {"A", "W", "AL", "WC", "ACD", "LLLLK",
                                  "GPGGPA"}) {
    for (const std::size_t length : {16, 40, 97}) {
      std::vector<std::uint8_t> seq(length);
      for (std::size_t k = 0; k < length; ++k) {
        seq[k] = code(motif[k % motif.size()]);
      }
      sequences.push_back(std::move(seq));
    }
  }
  for (const std::size_t length : {20, 64, 150}) {
    std::vector<std::uint8_t> seq(length);
    for (auto& r : seq) r = code("ALS"[rng.bounded(3)]);
    sequences.push_back(std::move(seq));
  }
  for (const int x_drop : {5, 16, 38, 200}) {
    for (const auto& [open, extend] : std::vector<std::pair<int, int>>{
             {11, 1}, {5, 2}, {0, 1}, {0, 0}}) {
      GapParams params;
      params.open = open;
      params.extend = extend;
      params.x_drop = x_drop;
      for (std::size_t s = 0; s < sequences.size(); ++s) {
        for (std::size_t t = s; t < sequences.size(); t += 5) {
          expect_halves_agree(sequences[s], sequences[t], matrix, rows, params,
                              "s=" + std::to_string(s) +
                                  " t=" + std::to_string(t) +
                                  " x=" + std::to_string(x_drop) +
                                  " open=" + std::to_string(open) +
                                  " ext=" + std::to_string(extend));
        }
      }
    }
  }
}

TEST(GappedSimd, ExtendWithAnEmptyHalfMatchesScalar) {
  // Anchors at offset 0 leave the backward half empty, anchors at the
  // sequence end leave the forward half empty; the lockstep stepping must
  // finish the other half alone.
  util::Xoshiro256 rng(47);
  const GapParams params;
  for (int trial = 0; trial < 6; ++trial) {
    const auto s0 = random_codes(60 + rng.bounded(60), rng);
    const auto s1 = trial % 2 == 0 ? diverged(s0, rng)
                                   : random_codes(60 + rng.bounded(60), rng);
    const std::string label = "trial=" + std::to_string(trial);
    expect_extend_matches(s0, s1, 0, 0, params, label + " both at 0");
    expect_extend_matches(s0, s1, s0.size() - 4, s1.size() - 4, params,
                          label + " both at end");
    expect_extend_matches(s0, s1, 0, s1.size() - 4, params,
                          label + " s0 at 0, s1 at end");
    expect_extend_matches(s0, s1, s0.size() - 4, 0, params,
                          label + " s0 at end, s1 at 0");
    expect_extend_matches(s0, s1, s0.size() / 2, s1.size() / 3, params,
                          label + " interior");
  }
}

TEST(GappedSimd, ExtendReRunsOnlyTheOverflowingHalf) {
  // One half self-aligns ~3000 tryptophans (past +32k, so it trips the
  // portable tier's 16-bit guard); the other half is an ordinary short
  // extension. The 8-bit tier stores cells relative to the running best,
  // so it runs the same half to the end without any guard. No
  // traceback: re-aligning a 3000 x 3000 region adds nothing here.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GapParams params;
  const GappedSimdMatrix rows(matrix);
  util::Xoshiro256 rng(53);
  const std::uint8_t w =
      bio::Sequence::protein_from_letters("w", "W").residues()[0];
  const std::vector<std::uint8_t> poly_w(3000, w);
  const auto seed = random_codes(4, rng);
  const auto tail0 = random_codes(90, rng);
  const auto tail1 = diverged(tail0, rng);

  // Backward half overflows: W run, seed, ordinary tail.
  std::vector<std::uint8_t> s0 = poly_w, s1 = poly_w;
  s0.insert(s0.end(), seed.begin(), seed.end());
  s1.insert(s1.end(), seed.begin(), seed.end());
  s0.insert(s0.end(), tail0.begin(), tail0.end());
  s1.insert(s1.end(), tail1.begin(), tail1.end());
  expect_extend_matches(s0, s1, poly_w.size(), poly_w.size(), params,
                        "backward overflows", /*traceback=*/false);

  // Forward half overflows: ordinary head, seed, W run.
  std::vector<std::uint8_t> t0(tail0.rbegin(), tail0.rend());
  std::vector<std::uint8_t> t1(tail1.rbegin(), tail1.rend());
  t0.insert(t0.end(), seed.begin(), seed.end());
  t1.insert(t1.end(), seed.begin(), seed.end());
  t0.insert(t0.end(), poly_w.begin(), poly_w.end());
  t1.insert(t1.end(), poly_w.begin(), poly_w.end());
  expect_extend_matches(t0, t1, tail0.size(), tail1.size(), params,
                        "forward overflows", /*traceback=*/false);

  EXPECT_FALSE(
      xdrop_gapped_half_portable(poly_w, poly_w, rows, params).has_value());
  const auto tail = xdrop_gapped_half_portable(tail0, tail1, rows, params);
  ASSERT_TRUE(tail.has_value());
  expect_same_half(xdrop_gapped_half(tail0, tail1, matrix, params), *tail,
                   "portable tail");

  if (u8_tier_runs(matrix, params)) {
    const HalfExtension scalar = xdrop_gapped_half(poly_w, poly_w, matrix,
                                                   params);
    ASSERT_GT(scalar.score, 32767);
    XdropScratch scratch;
    const auto pair = xdrop_gapped_halves_avx2(
        {poly_w, poly_w, /*backward=*/true}, {tail0, tail1}, rows, params,
        scratch);
    expect_same_half(scalar, pair[0], "u8 poly-W");
    expect_same_half(xdrop_gapped_half(tail0, tail1, matrix, params), pair[1],
                     "u8 tail");
  }
}

/// One letter's residue code.
std::uint8_t code_of(char letter) {
  return bio::Sequence::protein_from_letters("r", std::string(1, letter))
      .residues()[0];
}

/// Rows of the scalar X-drop half (the recurrence of xdrop_gapped_half)
/// that prune a cell at or above the row-start threshold best - x_drop:
/// the best rose earlier in the row, so these are cells the 8-bit tier's
/// optimistic prune keeps and its fix-up pass must drop.
std::size_t rows_with_late_prunes(const std::vector<std::uint8_t>& a,
                                  const std::vector<std::uint8_t>& b,
                                  const bio::SubstitutionMatrix& matrix,
                                  const GapParams& params) {
  constexpr int kNeg = -(1 << 28);
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return 0;
  const int go = params.open + params.extend;
  const int ge = params.extend;
  const int x = params.x_drop;
  std::vector<int> h_prev(m + 1, kNeg), f_prev(m + 1, kNeg);
  std::vector<int> h_cur(m + 1), f_cur(m + 1);
  int best = 0;
  std::size_t lo = 0, hi = 0;
  h_prev[0] = 0;
  int e = kNeg;
  for (std::size_t j = 1; j <= m; ++j) {
    e = std::max(h_prev[j - 1] - go, e - ge);
    h_prev[j] = e;
    if (e < best - x) break;
    hi = j;
  }
  std::size_t rows = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), kNeg);
    std::fill(f_cur.begin(), f_cur.end(), kNeg);
    const int start = best;
    bool late_prune = false;
    bool any_live = false;
    std::size_t new_lo = m + 1, new_hi = 0;
    e = kNeg;
    for (std::size_t j = lo; j <= std::min(hi + 1, m); ++j) {
      f_cur[j] = std::max(h_prev[j] - go, f_prev[j] - ge);
      int value = f_cur[j];
      if (j > 0) {
        e = std::max(h_cur[j - 1] - go, e - ge);
        value = std::max(value, e);
        if (h_prev[j - 1] > kNeg / 2) {
          value = std::max(value, h_prev[j - 1] + matrix.score(a[i - 1],
                                                               b[j - 1]));
        }
      }
      if (value < best - x) {
        late_prune = late_prune || value >= start - x;
        continue;
      }
      h_cur[j] = value;
      any_live = true;
      new_lo = std::min(new_lo, j);
      new_hi = j;
      best = std::max(best, value);
    }
    if (!any_live) break;
    rows += late_prune ? 1 : 0;
    lo = new_lo;
    hi = new_hi;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return rows;
}

TEST(GappedSimd, FixUpRowsMatchScalar) {
  // A row raises the best by at most the max score S = M - 1 (one
  // diagonal step). Self-aligned poly-W rises by exactly S on every row.
  // W-rich random pairs under small x_drop give rows where the best
  // rises and then cells that cleared the row-start threshold fall below
  // the new one: the optimistic prune keeps them, the fix-up drops them.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GappedSimdMatrix rows(matrix);
  const std::vector<std::uint8_t> poly_w(70, code_of('W'));
  util::Xoshiro256 rng(59);
  const std::uint8_t letters[] = {code_of('W'), code_of('W'), code_of('C'),
                                  code_of('A'), code_of('Y')};
  std::size_t late_rows = 0;
  for (const int x_drop : {0, 3, 8, 12, 20}) {
    for (const auto& [open, extend] :
         std::vector<std::pair<int, int>>{{11, 1}, {2, 1}, {0, 3}}) {
      GapParams params;
      params.open = open;
      params.extend = extend;
      params.x_drop = x_drop;
      const std::string where = "x=" + std::to_string(x_drop) +
                                " open=" + std::to_string(open) +
                                " ext=" + std::to_string(extend);
      expect_halves_agree(poly_w, poly_w, matrix, rows, params,
                          "poly-W " + where);
      for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::uint8_t> a(20 + rng.bounded(60));
        for (auto& r : a) r = letters[rng.bounded(5)];
        std::vector<std::uint8_t> b = a;
        for (auto& r : b) {
          if (rng.bounded(4) == 0) r = letters[rng.bounded(5)];
        }
        late_rows += rows_with_late_prunes(a, b, matrix, params);
        expect_halves_agree(a, b, matrix, rows, params,
                            where + " trial=" + std::to_string(trial));
      }
    }
  }
  EXPECT_GT(late_rows, 0u);

  // Pairs where keeping those cells would change the result: a kept
  // cell seeds a diagonal that climbs past the best, or widens the next
  // row's range.
  struct Case {
    const char* a;
    const char* b;
    int open, extend, x_drop;
  };
  const Case cases[] = {
      {"WACWCWAWCACCWCWWWYYWAWWAWCWWCCY", "WAAWCWAWCCWCWWAWWYYYAWWACCWWCCY",
       2, 1, 3},
      {"YWYYCWAWCCWCYWCACCAY", "WWCWYWYWYWYCCCWWACYYWWW", 0, 3, 8},
      {"WWWWGWGGWWGWGWWGWGGWGGWGWWGGWGGWGGGWGGGWWGGWGGWGWGWGWWW",
       "WWGWWWGWGGWWGWGWWGGWGGGWGGWGWGWGGWGGWGGWGGGGWWGGGGWGWWGWGWGWW", 0, 3,
       8},
      {"GGGWGGGGGWGGWGGWGGGGGGGGGGGGGWGGGGGGGGGGGGWGGGGGGGGGGGWGGGGGGGWG",
       "GGWGGGGGGGGGGGGGGGGGGGGWWGGGGWWWWGGG", 0, 3, 8},
      // Two diagonals 32 or more columns apart: the best rises on the
      // left one, the cells it dooms lie on the right one, a block or
      // more later, so the fix-up's P must carry across blocks.
      {"NCCWMCKPWKPWLMMLMNLNCMMNWMGKWGNPNCKGCWNMCNNMPMKKLCGNLLMKLGMMWLPN",
       "WMWGLKMPGNPMGPMMCMKCLCKCNNMMLGGNNMMMNKWMWNGGKLMPWWPCCPWMLPKWCPWMCKPW"
       "KPWLMWLMNLNMMMNWMGKWKNPNCKGLLNMCNNMPMLPLCGNLLMKLGMMWLMN",
       6, 1, 33},
      {"MNNCMLNCPCLWCMPKGKWMCCCGCNMKCNWGMKWWCGGMLWWLNWMNCWKCWMGLKNNGPM",
       "MNLCMLCPKMCKGLGCWWMMKPMLNWCMWCGWNWMMKMLWCCMGLKMKCPKKCPWMCCNLCPWNKNCP"
       "CLWCMPKWKWMCCCGCNLKCNWGMKWWGGGMLGWLNWMNLWKCLMCKKNNGPM",
       6, 1, 43},
  };
  for (const Case& c : cases) {
    GapParams params;
    params.open = c.open;
    params.extend = c.extend;
    params.x_drop = c.x_drop;
    const auto a = bio::Sequence::protein_from_letters("a", c.a).residues();
    const auto b = bio::Sequence::protein_from_letters("b", c.b).residues();
    expect_halves_agree({a.begin(), a.end()}, {b.begin(), b.end()}, matrix,
                        rows, params, std::string("case ") + c.a);
  }
}

TEST(GappedSimd, TiedRowMaxKeepsTheEarlierBest) {
  // W-W scores 11 in row 1; row 2's diagonal adds A-T = 0, so its max
  // only ties the best. The scalar strict '>' keeps (1, 1): no fix-up
  // runs and the best cell stays where it was.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GappedSimdMatrix rows(matrix);
  std::vector<std::uint8_t> a = {code_of('W'), code_of('A')};
  std::vector<std::uint8_t> b = {code_of('W'), code_of('T')};
  for (int k = 0; k < 40; ++k) {
    a.push_back(code_of('P'));
    b.push_back(code_of('W'));
  }
  for (const int x_drop : {0, 11, 38, 104}) {
    GapParams params;
    params.x_drop = x_drop;
    const std::string where = "x=" + std::to_string(x_drop);
    const HalfExtension scalar = xdrop_gapped_half(a, b, matrix, params);
    ASSERT_EQ(scalar.score, 11) << where;
    ASSERT_EQ(scalar.end0, 1u) << where;
    ASSERT_EQ(scalar.end1, 1u) << where;
    expect_halves_agree(a, b, matrix, rows, params, where);
    // The same tie seen by the backward half of an extension.
    std::vector<std::uint8_t> s0 = reversed(a), s1 = reversed(b);
    for (const char seed : {'K', 'L', 'M', 'N'}) {
      s0.push_back(code_of(seed));
      s1.push_back(code_of(seed));
    }
    expect_extend_matches(s0, s1, a.size(), b.size(), params, where);
  }
}

/// Homologous and unrelated pairs through the raw halves and extend().
void expect_pairs_agree(const bio::SubstitutionMatrix& matrix,
                        const GapParams& params, util::Xoshiro256& rng,
                        const std::string& label) {
  const GappedSimdMatrix rows(matrix);
  for (int trial = 0; trial < 4; ++trial) {
    const auto s0 = random_codes(80 + rng.bounded(200), rng);
    const auto s1 = trial % 2 == 0 ? diverged(s0, rng)
                                   : random_codes(80 + rng.bounded(200), rng);
    const std::string where = label + " trial=" + std::to_string(trial);
    expect_halves_agree(s0, s1, matrix, rows, params, where);
    const std::size_t anchor0 = s0.size() / 2;
    const std::size_t anchor1 = std::min(anchor0, s1.size() - 4);
    expect_extend_matches(s0, s1, anchor0, anchor1, params, where,
                          /*traceback=*/true, matrix);
  }
}

TEST(GappedSimd, XdropRangeEdgeKeepsTheSameBits) {
  // x_drop = 104 is the widest the 8-bit tier takes under BLOSUM62
  // (104 + 12 + 11 + 128 = 255); 105 resolves the X-drop halves to the
  // portable tier, and both give the scalar bits.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  util::Xoshiro256 rng(61);
  for (const int x_drop : {104, 105}) {
    GapParams params;
    params.x_drop = x_drop;
    EXPECT_EQ(xdrop_u8_applicable(matrix, params), x_drop == 104);
    const GappedExtender extender(matrix, params, GappedKernel::kAvx2);
    if (x_drop == 105) {
      EXPECT_EQ(extender.xdrop_kernel(), GappedKernel::kPortable);
    }
    expect_pairs_agree(matrix, params, rng, "x=" + std::to_string(x_drop));
  }
}

TEST(GappedSimd, MatrixMaxScoreAtTheRangeLimit) {
  // With x_drop = 38 the 8-bit tier takes a max score up to S = 44
  // (38 + 45 + 44 + 128 = 255): every diagonal step can reach the top
  // byte. S = 45 is refused and runs portable.
  GapParams params;
  util::Xoshiro256 rng(67);
  for (const int top : {44, 45}) {
    const bio::SubstitutionMatrix matrix =
        bio::SubstitutionMatrix::identity(static_cast<std::int16_t>(top), -20);
    EXPECT_EQ(xdrop_u8_applicable(matrix, params), top == 44);
    expect_pairs_agree(matrix, params, rng, "S=" + std::to_string(top));
  }
}

TEST(GappedSimd, ReusedScratchLeaksNoStaleCells) {
  // One worker's scratch serves every extension it runs: a long
  // homologous extension leaves wide rows of high cells behind, and the
  // short extensions after it -- also after the buffers are overwritten
  // with noise -- must read none of them.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GapParams params;
  if (!u8_tier_runs(matrix, params)) GTEST_SKIP() << "no AVX2";
  const GappedSimdMatrix rows(matrix);
  const GappedExtender extender(matrix, params, GappedKernel::kAvx2);
  util::Xoshiro256 rng(71);
  const auto long0 = random_codes(1500, rng);
  const auto long1 = diverged(long0, rng);
  XdropScratch scratch;
  for (int round = 0; round < 4; ++round) {
    const std::string where = "round=" + std::to_string(round);
    expect_same_alignment(
        xdrop_gapped_extend(long0, long1, 700, 680, 4, matrix, params),
        extender.extend(long0, long1, 700, 680, 4, false, scratch),
        where + " long");
    if (round % 2 == 1) {
      for (auto& half : scratch.halves) {
        for (auto& byte : half) byte = static_cast<std::uint8_t>(rng());
      }
    }
    for (int k = 0; k < 12; ++k) {
      const auto s0 = random_codes(4 + rng.bounded(40), rng);
      const auto s1 =
          k % 2 == 0 ? diverged(s0, rng) : random_codes(4 + rng.bounded(40), rng);
      if (s1.size() < 4) continue;
      const std::size_t anchor0 = rng.bounded(s0.size() - 3);
      const std::size_t anchor1 = rng.bounded(s1.size() - 3);
      const std::string label = where + " short k=" + std::to_string(k);
      for (const bool traceback : {false, true}) {
        expect_same_alignment(
            xdrop_gapped_extend(s0, s1, anchor0, anchor1, 4, matrix, params,
                                traceback),
            extender.extend(s0, s1, anchor0, anchor1, 4, traceback, scratch),
            label);
      }
      expect_same_half(xdrop_gapped_half(s0, s1, matrix, params),
                       xdrop_gapped_half_avx2({s0, s1}, rows, params, scratch),
                       label + " half");
    }
  }
}

TEST(GappedSimd, EmptyHalvesReadBackwardsInPlace) {
  // Anchors at 0 leave nothing before the seed, anchors at the last
  // seed position nothing after it; sequences one seed long empty both
  // halves. The backward half reads its prefixes in place, so exactly
  // sized heap sequences let ASan catch a read before or past either.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const GapParams params;
  util::Xoshiro256 rng(73);
  XdropScratch scratch;
  const GappedExtender extender(matrix, params);
  for (const std::size_t length : {4, 5, 9, 33, 64, 65}) {
    const auto s0 = random_codes(length, rng);
    auto s1 = diverged(s0, rng);
    if (s1.size() < 4) s1 = s0;
    const std::size_t last0 = s0.size() - 4;
    const std::size_t last1 = s1.size() - 4;
    const std::pair<std::size_t, std::size_t> anchors[] = {
        {0, 0}, {0, last1}, {last0, 0}, {last0, last1}};
    for (const auto& [anchor0, anchor1] : anchors) {
      const std::string where = "len=" + std::to_string(length) + " anchors=" +
                                std::to_string(anchor0) + "," +
                                std::to_string(anchor1);
      for (const bool traceback : {false, true}) {
        expect_same_alignment(
            xdrop_gapped_extend(s0, s1, anchor0, anchor1, 4, matrix, params,
                                traceback),
            extender.extend(s0, s1, anchor0, anchor1, 4, traceback, scratch),
            where);
      }
    }
  }
  if (!u8_tier_runs(matrix, params)) return;
  const GappedSimdMatrix rows(matrix);
  const auto some = random_codes(20, rng);
  const std::vector<std::uint8_t> none;
  for (const bool backward : {false, true}) {
    expect_same_half({}, xdrop_gapped_half_avx2({none, some, backward}, rows,
                                                params, scratch),
                     "empty a");
    expect_same_half({}, xdrop_gapped_half_avx2({some, none, backward}, rows,
                                                params, scratch),
                     "empty b");
  }
}

TEST(GappedSimd, ResolutionNamesAndApplicability) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  const GapParams defaults;
  EXPECT_TRUE(gapped_simd_applicable(blosum, defaults));
  EXPECT_EQ(resolve_gapped_kernel(GappedKernel::kScalar, blosum, defaults),
            GappedKernel::kScalar);
  const GappedKernel resolved =
      resolve_gapped_kernel(GappedKernel::kAuto, blosum, defaults);
  EXPECT_NE(resolved, GappedKernel::kAuto);
  EXPECT_NE(resolved, GappedKernel::kScalar);
  if (gapped_avx2_available()) {
    EXPECT_EQ(resolved, GappedKernel::kAvx2);
  } else {
    EXPECT_EQ(resolved, GappedKernel::kPortable);
  }

  GapParams negative_open = defaults;
  negative_open.open = -1;
  EXPECT_FALSE(gapped_simd_applicable(blosum, negative_open));
  EXPECT_EQ(resolve_gapped_kernel(GappedKernel::kAvx2, blosum, negative_open),
            GappedKernel::kScalar);
  GapParams huge_xdrop = defaults;
  huge_xdrop.x_drop = 30000;
  EXPECT_FALSE(gapped_simd_applicable(blosum, huge_xdrop));
  EXPECT_FALSE(xdrop_u8_applicable(blosum, huge_xdrop));
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(gapped_simd_applicable(wide, defaults));
  EXPECT_FALSE(xdrop_u8_applicable(wide, defaults));

  // The 8-bit range: x_drop + M + S + 128 <= 255 with S = 11, M = 12.
  EXPECT_TRUE(xdrop_u8_applicable(blosum, defaults));
  GapParams widest = defaults;
  widest.x_drop = 104;
  EXPECT_TRUE(xdrop_u8_applicable(blosum, widest));
  GapParams refused = defaults;
  refused.x_drop = 105;
  EXPECT_TRUE(gapped_simd_applicable(blosum, refused));
  EXPECT_FALSE(xdrop_u8_applicable(blosum, refused));
  EXPECT_FALSE(xdrop_u8_applicable(blosum, negative_open));
  // A matrix whose max score is negative still needs a margin of 1.
  const bio::SubstitutionMatrix all_negative =
      bio::SubstitutionMatrix::identity(-1, -2);
  GapParams tight = defaults;
  tight.x_drop = 126;
  EXPECT_TRUE(xdrop_u8_applicable(all_negative, tight));
  tight.x_drop = 127;
  EXPECT_FALSE(xdrop_u8_applicable(all_negative, tight));

  const GappedKernel tier =
      gapped_avx2_available() ? GappedKernel::kAvx2 : GappedKernel::kPortable;
  const GappedExtender in_range(blosum, widest, GappedKernel::kAvx2);
  EXPECT_EQ(in_range.kernel(), tier);
  EXPECT_EQ(in_range.xdrop_kernel(), tier);
  const GappedExtender out_of_range(blosum, refused, GappedKernel::kAvx2);
  EXPECT_EQ(out_of_range.kernel(), tier);
  EXPECT_EQ(out_of_range.xdrop_kernel(), GappedKernel::kPortable);
  EXPECT_EQ(GappedExtender(blosum, refused, GappedKernel::kScalar)
                .xdrop_kernel(),
            GappedKernel::kScalar);

  for (const GappedKernel kernel :
       {GappedKernel::kAuto, GappedKernel::kScalar, GappedKernel::kPortable,
        GappedKernel::kAvx2}) {
    const auto parsed = parse_gapped_kernel(gapped_kernel_name(kernel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(parse_gapped_kernel("fpga").has_value());
}

}  // namespace
}  // namespace psc::align
