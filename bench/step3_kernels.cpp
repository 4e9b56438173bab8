// Step-3 gapped-extension kernel shoot-out: the scalar reference vs the
// portable tier (16-bit lanes) and the AVX2 tier (8-bit X-drop halves,
// 16-bit banded windows), on the two shapes the pipeline runs --
// the banded window screen (fixed geometry, deterministic cell count;
// this is the throughput gate) and the X-drop half extension (content-
// dependent pruning, reported as halves/sec). The X-drop kernel is timed
// twice: on homologous pairs, whose rows grow many blocks wide, and on
// unrelated pairs, whose halves die after tens of rows a couple of
// blocks wide -- the regime of the ~99.8% of pipeline extensions that
// are rejected, where per-block and per-row latency dominates. The
// short-half section also times whole GappedExtender::extend calls
// (both halves of an anchor, one reused XdropScratch), where the AVX2
// tier steps its two halves in lockstep and reads the backward half's
// prefixes in place. A final end-to-end section
// runs the whole pipeline per --step3-kernel selection and byte-compares
// the encoded match sections against the scalar run, so the JSON records
// the bit-identity claim next to the speedups.
//
// Writes BENCH_step3_kernels.json. Exit code gates the acceptance
// criterion (AVX2 banded cell throughput >= 4x scalar) only when the CPU
// actually has AVX2; elsewhere the numbers are recorded and the gate is
// skipped, since the tier under test cannot run.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/gapped.hpp"
#include "align/gapped_simd.hpp"
#include "core/pipeline.hpp"
#include "core/result_codec.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

constexpr std::size_t kWindowLength = 256;
constexpr std::size_t kBand = 31;
constexpr std::size_t kPairs = 64;
constexpr std::size_t kShortLength = 600;  // anchored mid-sequence
constexpr std::size_t kShortPairs = 256;
constexpr std::size_t kSeedWidth = 4;
constexpr double kRequiredSpeedup = 4.0;

struct KernelRow {
  const char* name;
  double banded_cells_per_sec = 0.0;
  double banded_speedup = 1.0;
  double xdrop_halves_per_sec = 0.0;
  double xdrop_speedup = 1.0;
  double short_halves_per_sec = 0.0;
  double short_speedup = 1.0;
  double extends_per_sec = 0.0;
  double extend_speedup = 1.0;
  double pipeline_seconds = 0.0;
  bool pipeline_identical = true;
};

/// Cells the scalar banded kernel touches for one window pair: the band
/// |i - j| <= B clipped to the n x n square (n = min length).
std::size_t banded_cells(std::size_t n, std::size_t band) {
  std::size_t cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = i > band ? i - band : 1;
    const std::size_t hi = std::min(i + band, n);
    cells += hi - lo + 1;
  }
  return cells;
}

std::vector<std::uint8_t> residues(const bio::Sequence& seq) {
  return {seq.residues().begin(), seq.residues().end()};
}

/// Warm up, then grow the repetition count until the run is long enough
/// for the steady-state rate to dominate timer overhead (same
/// calibration as bench/micro_kernels.cpp).
template <typename Fn>
double calibrated_rate(std::size_t units_per_call, Fn&& call) {
  call();
  std::size_t reps = 16;
  for (;;) {
    util::Timer timer;
    for (std::size_t r = 0; r < reps; ++r) call();
    const double seconds = timer.seconds();
    if (seconds >= 0.2) {
      return static_cast<double>(reps * units_per_call) / seconds;
    }
    reps *= 4;
  }
}

/// Homologous window pairs: mutated copies so the DP sees realistic
/// score gradients (all-random pairs die immediately under X-drop).
struct PairSet {
  std::vector<std::vector<std::uint8_t>> s0, s1;
};

PairSet make_pairs(std::size_t count, std::size_t length, std::uint64_t seed) {
  PairSet pairs;
  util::Xoshiro256 rng(seed);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.25;
  divergence.indel_rate = 0.02;
  for (std::size_t i = 0; i < count; ++i) {
    std::string id = "w";
    id += std::to_string(i);
    const bio::Sequence base = sim::generate_protein(std::move(id), length, rng);
    bio::Sequence twin = sim::mutate_protein(base, divergence, rng);
    auto r0 = residues(base);
    auto r1 = residues(twin);
    r1.resize(length, r1.empty() ? std::uint8_t{0} : r1.back());
    pairs.s0.push_back(std::move(r0));
    pairs.s1.push_back(std::move(r1));
  }
  return pairs;
}

/// Unrelated pairs of uniform random residues: X-drop kills their
/// halves after tens of rows (about 90 under BLOSUM62 11/1/38), each row
/// a couple of 16-lane blocks wide.
PairSet make_unrelated_pairs(std::size_t count, std::size_t length,
                             std::uint64_t seed) {
  PairSet pairs;
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> r0(length), r1(length);
    for (auto& r : r0) r = static_cast<std::uint8_t>(rng.bounded(20));
    for (auto& r : r1) r = static_cast<std::uint8_t>(rng.bounded(20));
    pairs.s0.push_back(std::move(r0));
    pairs.s1.push_back(std::move(r1));
  }
  return pairs;
}

/// End-to-end workload: the step3_kernels_test banks scaled up so the
/// pipeline spends measurable time in step 3.
struct PipelineWorkload {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::Sequence genome;

  PipelineWorkload() {
    util::Xoshiro256 rng(97);
    for (std::size_t i = 0; i < 12; ++i) {
      std::string id = "p";
      id += std::to_string(i);
      proteins.add(sim::generate_protein(std::move(id), 160, rng));
    }
    sim::GenomeConfig config;
    config.length = 60000;
    config.seed = 97;
    genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      sim::plant_gene(genome,
                      sim::mutate_protein(proteins[i % proteins.size()],
                                          divergence, rng),
                      4000 + 9000 * i, (i % 2) == 0, rng);
    }
  }
};

}  // namespace

int main() {
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  const align::GapParams params;  // the pipeline defaults: 11/1/38
  const align::GappedSimdMatrix rows(matrix);
  const bool has_avx2 = align::gapped_avx2_available();
  if (!align::xdrop_u8_applicable(matrix, params)) {
    std::fprintf(stderr,
                 "step3_kernels: BLOSUM62 + default gap params outside the "
                 "SIMD tiers' exact range?!\n");
    return 1;
  }
  align::XdropScratch scratch;

  const PairSet pairs = make_pairs(kPairs, kWindowLength, 11);
  const std::size_t cells_per_pass =
      kPairs * banded_cells(kWindowLength, kBand);

  KernelRow kernels[] = {{"scalar"}, {"portable"}, {"avx2"}};
  std::uint64_t check_scalar = 0, check_tier = 0;

  // ---- banded window screen (the gate) ----------------------------------
  std::fprintf(stderr,
               "=== step-3 banded screen: %zu pairs, window %zu, band %zu "
               "(%zu cells/pass) ===\n",
               kPairs, kWindowLength, kBand, cells_per_pass);
  kernels[0].banded_cells_per_sec = calibrated_rate(cells_per_pass, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      sum += static_cast<std::uint64_t>(align::banded_window_score(
          pairs.s0[i], pairs.s1[i], kBand, params, matrix));
    }
    check_scalar = sum;
  });
  kernels[1].banded_cells_per_sec = calibrated_rate(cells_per_pass, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      const auto score = align::banded_window_score_portable(
          pairs.s0[i], pairs.s1[i], kBand, params, rows);
      sum += static_cast<std::uint64_t>(
          score ? *score
                : align::banded_window_score(pairs.s0[i], pairs.s1[i], kBand,
                                             params, matrix));
    }
    check_tier = sum;
  });
  if (check_tier != check_scalar) {
    std::fprintf(stderr, "step3_kernels: portable banded checksum mismatch\n");
    return 1;
  }
  if (has_avx2) {
    kernels[2].banded_cells_per_sec = calibrated_rate(cells_per_pass, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kPairs; ++i) {
        const auto score = align::banded_window_score_avx2(
            pairs.s0[i], pairs.s1[i], kBand, params, rows);
        sum += static_cast<std::uint64_t>(
            score ? *score
                  : align::banded_window_score(pairs.s0[i], pairs.s1[i], kBand,
                                               params, matrix));
      }
      check_tier = sum;
    });
    if (check_tier != check_scalar) {
      std::fprintf(stderr, "step3_kernels: avx2 banded checksum mismatch\n");
      return 1;
    }
  }

  // ---- X-drop half extension --------------------------------------------
  kernels[0].xdrop_halves_per_sec = calibrated_rate(kPairs, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      sum += static_cast<std::uint64_t>(
          align::xdrop_gapped_half(pairs.s0[i], pairs.s1[i], matrix, params)
              .score);
    }
    check_scalar = sum;
  });
  kernels[1].xdrop_halves_per_sec = calibrated_rate(kPairs, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      const auto half = align::xdrop_gapped_half_portable(
          pairs.s0[i], pairs.s1[i], rows, params);
      sum += static_cast<std::uint64_t>(
          half ? half->score
               : align::xdrop_gapped_half(pairs.s0[i], pairs.s1[i], matrix,
                                          params)
                     .score);
    }
    check_tier = sum;
  });
  if (check_tier != check_scalar) {
    std::fprintf(stderr, "step3_kernels: portable xdrop checksum mismatch\n");
    return 1;
  }
  if (has_avx2) {
    kernels[2].xdrop_halves_per_sec = calibrated_rate(kPairs, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kPairs; ++i) {
        sum += static_cast<std::uint64_t>(
            align::xdrop_gapped_half_avx2({pairs.s0[i], pairs.s1[i]}, rows,
                                          params, scratch)
                .score);
      }
      check_tier = sum;
    });
    if (check_tier != check_scalar) {
      std::fprintf(stderr, "step3_kernels: avx2 xdrop checksum mismatch\n");
      return 1;
    }
  }

  // ---- X-drop in the pipeline's regime: short halves, whole extends ------
  // Each unrelated pair is anchored mid-sequence: the backward half runs
  // on the reversed prefixes, the forward half on the suffixes past the
  // seed, exactly as extend() splits them.
  const PairSet unrelated = make_unrelated_pairs(kShortPairs, kShortLength, 23);
  const std::size_t anchor = kShortLength / 2;
  PairSet halves;
  for (std::size_t i = 0; i < kShortPairs; ++i) {
    halves.s0.emplace_back(unrelated.s0[i].rend() - anchor,
                           unrelated.s0[i].rend());
    halves.s1.emplace_back(unrelated.s1[i].rend() - anchor,
                           unrelated.s1[i].rend());
    halves.s0.emplace_back(unrelated.s0[i].begin() + anchor + kSeedWidth,
                           unrelated.s0[i].end());
    halves.s1.emplace_back(unrelated.s1[i].begin() + anchor + kSeedWidth,
                           unrelated.s1[i].end());
  }
  const std::size_t short_halves = halves.s0.size();
  // One short half on tier k (0 scalar, 1 portable, 2 AVX2); the
  // portable tier re-runs scalar when its 16-bit guard trips.
  const auto run_half = [&](std::size_t k, std::size_t i) {
    if (k == 2) {
      return align::xdrop_gapped_half_avx2({halves.s0[i], halves.s1[i]},
                                           rows, params, scratch);
    }
    std::optional<align::HalfExtension> half;
    if (k == 1) {
      half = align::xdrop_gapped_half_portable(halves.s0[i], halves.s1[i],
                                               rows, params);
    }
    return half ? *half
                : align::xdrop_gapped_half(halves.s0[i], halves.s1[i], matrix,
                                           params);
  };
  const align::GappedKernel extend_tiers[] = {align::GappedKernel::kScalar,
                                              align::GappedKernel::kPortable,
                                              align::GappedKernel::kAvx2};
  std::uint64_t half_check[3] = {}, extend_check[3] = {};
  for (std::size_t k = 0; k < 3; ++k) {
    if (k == 2 && !has_avx2) break;
    kernels[k].short_halves_per_sec = calibrated_rate(short_halves, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < short_halves; ++i) {
        const align::HalfExtension half = run_half(k, i);
        sum += static_cast<std::uint64_t>(half.score) + half.end0 + half.end1;
      }
      half_check[k] = sum;
    });
    if (half_check[k] != half_check[0]) {
      std::fprintf(stderr, "step3_kernels: %s short-half checksum mismatch\n",
                   kernels[k].name);
      return 1;
    }
    const align::GappedExtender extender(matrix, params, extend_tiers[k]);
    kernels[k].extends_per_sec = calibrated_rate(kShortPairs, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kShortPairs; ++i) {
        const align::Alignment al =
            extender.extend(unrelated.s0[i], unrelated.s1[i], anchor, anchor,
                            kSeedWidth, /*with_traceback=*/false, scratch);
        sum += static_cast<std::uint64_t>(al.score) + al.begin0 + al.end1;
      }
      extend_check[k] = sum;
    });
    if (extend_check[k] != extend_check[0]) {
      std::fprintf(stderr, "step3_kernels: %s extend checksum mismatch\n",
                   kernels[k].name);
      return 1;
    }
  }

  // ---- end-to-end pipeline deltas ---------------------------------------
  const PipelineWorkload workload;
  std::vector<std::uint8_t> reference_bytes;
  const align::GappedKernel selections[] = {align::GappedKernel::kScalar,
                                            align::GappedKernel::kPortable,
                                            align::GappedKernel::kAvx2};
  for (std::size_t k = 0; k < 3; ++k) {
    if (k == 2 && !has_avx2) break;
    core::PipelineOptions options;
    options.backend = core::Step2Backend::kHostParallel;
    options.with_traceback = true;
    options.step3_kernel = selections[k];
    util::Timer timer;
    const core::PipelineResult result =
        core::run_pipeline_genome(workload.proteins, workload.genome, options);
    kernels[k].pipeline_seconds = timer.seconds();
    const std::vector<std::uint8_t> bytes =
        core::encode_matches(result.matches);
    if (k == 0) {
      reference_bytes = bytes;
      if (result.matches.empty()) {
        std::fprintf(stderr, "step3_kernels: pipeline found no matches\n");
        return 1;
      }
    } else {
      kernels[k].pipeline_identical = bytes == reference_bytes;
    }
    std::fprintf(stderr, "pipeline kernel=%-8s engine=%-8s %.3fs %s\n",
                 kernels[k].name, result.step3_engine.c_str(),
                 kernels[k].pipeline_seconds,
                 kernels[k].pipeline_identical ? "identical" : "DIFFERS");
  }

  // ---- report -------------------------------------------------------------
  bool identical = true;
  for (KernelRow& row : kernels) {
    row.banded_speedup =
        row.banded_cells_per_sec / kernels[0].banded_cells_per_sec;
    row.xdrop_speedup =
        row.xdrop_halves_per_sec / kernels[0].xdrop_halves_per_sec;
    row.short_speedup =
        row.short_halves_per_sec / kernels[0].short_halves_per_sec;
    row.extend_speedup = row.extends_per_sec / kernels[0].extends_per_sec;
    identical = identical && row.pipeline_identical;
  }
  const std::size_t shown = has_avx2 ? 3 : 2;
  for (std::size_t k = 0; k < shown; ++k) {
    const KernelRow& row = kernels[k];
    std::fprintf(stderr,
                 "%-9s banded %8.1f Mcells/s (%.2fx)   xdrop %8.1f halves/s "
                 "(%.2fx)   short %9.1f halves/s (%.2fx)   extend %9.1f "
                 "calls/s (%.2fx)\n",
                 row.name, row.banded_cells_per_sec / 1e6, row.banded_speedup,
                 row.xdrop_halves_per_sec, row.xdrop_speedup,
                 row.short_halves_per_sec, row.short_speedup,
                 row.extends_per_sec, row.extend_speedup);
  }

  const double avx2_speedup = kernels[2].banded_speedup;
  const bool gate_pass = !has_avx2 || avx2_speedup >= kRequiredSpeedup;

  std::ofstream json("BENCH_step3_kernels.json");
  json << "{\n"
       << "  \"window_length\": " << kWindowLength << ",\n"
       << "  \"band\": " << kBand << ",\n"
       << "  \"pairs\": " << kPairs << ",\n"
       << "  \"short_pairs\": " << kShortPairs << ",\n"
       << "  \"short_length\": " << kShortLength << ",\n"
       << "  \"avx2_available\": " << (has_avx2 ? "true" : "false") << ",\n"
       << "  \"kernels\": [\n";
  for (std::size_t k = 0; k < shown; ++k) {
    const KernelRow& row = kernels[k];
    json << "    {\"name\": \"" << row.name << "\", "
         << "\"banded_cells_per_sec\": " << row.banded_cells_per_sec << ", "
         << "\"banded_speedup_vs_scalar\": " << row.banded_speedup << ", "
         << "\"xdrop_halves_per_sec\": " << row.xdrop_halves_per_sec << ", "
         << "\"xdrop_speedup_vs_scalar\": " << row.xdrop_speedup << ", "
         << "\"short_halves_per_sec\": " << row.short_halves_per_sec << ", "
         << "\"short_speedup_vs_scalar\": " << row.short_speedup << ", "
         << "\"extends_per_sec\": " << row.extends_per_sec << ", "
         << "\"extend_speedup_vs_scalar\": " << row.extend_speedup << ", "
         << "\"pipeline_seconds\": " << row.pipeline_seconds << ", "
         << "\"pipeline_identical\": "
         << (row.pipeline_identical ? "true" : "false") << "}"
         << (k + 1 < shown ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"all_pipelines_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"gate\": {\"required_banded_speedup\": " << kRequiredSpeedup
       << ", \"enforced\": " << (has_avx2 ? "true" : "false")
       << ", \"pass\": " << (gate_pass ? "true" : "false") << "}\n"
       << "}\n";
  json.close();
  std::fprintf(stderr, "wrote BENCH_step3_kernels.json\n");

  if (!identical) {
    std::fprintf(stderr, "step3_kernels: pipeline outputs differ by kernel\n");
    return 1;
  }
  if (!has_avx2) {
    std::fprintf(stderr,
                 "gate skipped: no AVX2 on this CPU (tier under test cannot "
                 "run)\n");
    return 0;
  }
  std::fprintf(stderr, "gate: avx2 banded speedup %.2fx (need >= %.1fx): %s\n",
               avx2_speedup, kRequiredSpeedup, gate_pass ? "PASS" : "FAIL");
  return gate_pass ? 0 : 1;
}
