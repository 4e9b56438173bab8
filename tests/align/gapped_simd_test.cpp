// Property tests for the vectorized step-3 kernel layer: bit-for-bit
// equivalence of the scalar, portable, and AVX2 gapped kernels over
// random and homologous pairs, band widths, X-drop thresholds and gap
// cost grids, plus crafted overflow cases that must trip the 16-bit
// saturation fallback.
#include "align/gapped_simd.hpp"

#include <gtest/gtest.h>

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
  EXPECT_EQ(scalar.score, portable->score) << label;
  EXPECT_EQ(scalar.end0, portable->end0) << label;
  EXPECT_EQ(scalar.end1, portable->end1) << label;
  if (gapped_avx2_available()) {
    const auto avx2 = xdrop_gapped_half_avx2(a, b, rows, params);
    ASSERT_TRUE(avx2.has_value()) << label;
    EXPECT_EQ(scalar.score, avx2->score) << label;
    EXPECT_EQ(scalar.end0, avx2->end0) << label;
    EXPECT_EQ(scalar.end1, avx2->end1) << label;
  }

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
  // past +32k, so the 16-bit tiers must refuse (nullopt) rather than
  // saturate, and the extender must transparently re-run scalar.
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const std::vector<std::uint8_t> w(
      3100, bio::Sequence::protein_from_letters("w", "W").residues()[0]);
  GapParams params;
  params.x_drop = 28000;  // keep the whole band alive to the end
  ASSERT_TRUE(gapped_simd_applicable(matrix, params));
  const GappedSimdMatrix rows(matrix);

  EXPECT_FALSE(xdrop_gapped_half_portable(w, w, rows, params).has_value());
  EXPECT_FALSE(banded_window_score_portable(w, w, 4, params, rows).has_value());
  if (gapped_avx2_available()) {
    EXPECT_FALSE(xdrop_gapped_half_avx2(w, w, rows, params).has_value());
    EXPECT_FALSE(banded_window_score_avx2(w, w, 4, params, rows).has_value());
  }

  const HalfExtension scalar = xdrop_gapped_half(w, w, matrix, params);
  EXPECT_GT(scalar.score, 32767);
  for (const GappedKernel kernel :
       {GappedKernel::kPortable, GappedKernel::kAvx2, GappedKernel::kAuto}) {
    const GappedExtender extender(matrix, params, kernel);
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
  // Scores just under the guard must be produced by the SIMD tiers
  // themselves (no fallback): ~2900 * 11 = 31900 < 32767 - 256 is past
  // the guard... use 2800 -> 30800, inside the guarded range.
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
  EXPECT_EQ(scalar.score, portable->score);
  if (gapped_avx2_available()) {
    const auto avx2 = xdrop_gapped_half_avx2(w, w, rows, params);
    ASSERT_TRUE(avx2.has_value());
    EXPECT_EQ(scalar.score, avx2->score);
  }
}

/// Every kernel's extend() against the scalar xdrop_gapped_extend, with
/// and (when `traceback`) without re-alignment.
void expect_extend_matches(const std::vector<std::uint8_t>& s0,
                           const std::vector<std::uint8_t>& s1,
                           std::size_t anchor0, std::size_t anchor1,
                           const GapParams& params, const std::string& label,
                           bool traceback = true) {
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
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
      const std::string where = label + " " + gapped_kernel_name(kernel) +
                                " tb=" + std::to_string(with_traceback);
      EXPECT_EQ(scalar.score, got.score) << where;
      EXPECT_EQ(scalar.begin0, got.begin0) << where;
      EXPECT_EQ(scalar.begin1, got.begin1) << where;
      EXPECT_EQ(scalar.end0, got.end0) << where;
      EXPECT_EQ(scalar.end1, got.end1) << where;
      EXPECT_EQ(scalar.ops, got.ops) << where;
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

/// Scalar vs portable vs AVX2 X-drop halves on (score, end0, end1); on
/// AVX2 also the lockstep pair entry point, run on (a, b) beside (b, a).
void expect_halves_agree(const std::vector<std::uint8_t>& a,
                         const std::vector<std::uint8_t>& b,
                         const bio::SubstitutionMatrix& matrix,
                         const GappedSimdMatrix& rows, const GapParams& params,
                         const std::string& label) {
  const HalfExtension scalar = xdrop_gapped_half(a, b, matrix, params);
  const auto portable = xdrop_gapped_half_portable(a, b, rows, params);
  ASSERT_TRUE(portable.has_value()) << label;
  EXPECT_EQ(scalar.score, portable->score) << label;
  EXPECT_EQ(scalar.end0, portable->end0) << label;
  EXPECT_EQ(scalar.end1, portable->end1) << label;
  if (!gapped_avx2_available()) return;
  const auto avx2 = xdrop_gapped_half_avx2(a, b, rows, params);
  ASSERT_TRUE(avx2.has_value()) << label;
  EXPECT_EQ(scalar.score, avx2->score) << label;
  EXPECT_EQ(scalar.end0, avx2->end0) << label;
  EXPECT_EQ(scalar.end1, avx2->end1) << label;

  const HalfExtension swapped = xdrop_gapped_half(b, a, matrix, params);
  const auto pair = xdrop_gapped_halves_avx2(a, b, b, a, rows, params);
  ASSERT_TRUE(pair[0].has_value() && pair[1].has_value()) << label;
  EXPECT_EQ(scalar.score, pair[0]->score) << label << " lockstep";
  EXPECT_EQ(scalar.end0, pair[0]->end0) << label << " lockstep";
  EXPECT_EQ(scalar.end1, pair[0]->end1) << label << " lockstep";
  EXPECT_EQ(swapped.score, pair[1]->score) << label << " lockstep swapped";
  EXPECT_EQ(swapped.end0, pair[1]->end0) << label << " lockstep swapped";
  EXPECT_EQ(swapped.end1, pair[1]->end1) << label << " lockstep swapped";
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
  // 16-bit guard); the other half is an ordinary short extension. No
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

  if (gapped_avx2_available()) {
    const auto pair =
        xdrop_gapped_halves_avx2(poly_w, poly_w, tail0, tail1, rows, params);
    EXPECT_FALSE(pair[0].has_value());
    ASSERT_TRUE(pair[1].has_value());
    const HalfExtension scalar =
        xdrop_gapped_half(tail0, tail1, matrix, params);
    EXPECT_EQ(scalar.score, pair[1]->score);
    EXPECT_EQ(scalar.end0, pair[1]->end0);
    EXPECT_EQ(scalar.end1, pair[1]->end1);
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
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(gapped_simd_applicable(wide, defaults));

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
