// Google-benchmark microkernels for the library's hot paths: the
// ungapped window kernel (the PE datapath), index construction, the
// X-drop extensions, six-frame translation and the two simulator engines.
//
// The custom main() additionally runs a calibrated scalar/blocked/SIMD
// step-2 kernel shoot-out and writes BENCH_step2_kernels.json
// (cells/sec and speedup vs scalar) for machine consumption.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "align/gapped.hpp"
#include "align/ungapped.hpp"
#include "align/ungapped_simd.hpp"
#include "align/xdrop.hpp"
#include "bio/translate.hpp"
#include "index/index_table.hpp"
#include "index/neighborhood.hpp"
#include "rasc/psc_operator.hpp"
#include "sim/genome_generator.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

std::vector<std::uint8_t> random_residues(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& r : out) r = static_cast<std::uint8_t>(rng.bounded(20));
  return out;
}

void BM_UngappedWindowScore(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  const auto a = random_residues(length, 1);
  const auto b = random_residues(length, 2);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::ungapped_window_score(a, b, m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_UngappedWindowScore)->Arg(16)->Arg(64)->Arg(128);

void BM_UngappedBlockedOneVsMany(benchmark::State& state) {
  const std::size_t length = 64;
  util::Xoshiro256 rng(21);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 2000, rng));
  const index::WindowShape shape{4, 30};
  index::WindowBatch batch(length);
  for (std::uint32_t i = 0; i < 64; ++i) {
    batch.append(bank, index::Occurrence{0, 40 + 13 * i}, shape);
  }
  index::WindowBatch one(length);
  one.append(bank, index::Occurrence{0, 500}, shape);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  std::vector<int> scores;
  const bool blocked = state.range(0) != 0;
  for (auto _ : state) {
    if (blocked) {
      align::ungapped_score_one_vs_many_blocked(one.window(0), batch, m,
                                                scores);
    } else {
      align::ungapped_score_one_vs_many(one.window(0), batch, m, scores);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_UngappedBlockedOneVsMany)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("blocked");

void BM_PeBatchEngine(benchmark::State& state) {
  // One PE's duty -- a stored IL0 window against a stream of IL1 windows
  // -- as the batch engine scores it (through the align kernels).
  util::Xoshiro256 rng(3);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 4000, rng));
  const index::WindowShape shape{4, 30};
  index::WindowBatch il0(shape.length());
  index::WindowBatch il1(shape.length());
  il0.append(bank, index::Occurrence{0, 500}, shape);
  for (std::uint32_t j = 0; j < 64; ++j) {
    il1.append(bank, index::Occurrence{0, 41 + 13 * j}, shape);
  }
  rasc::PscConfig config;
  config.num_pes = 1;
  config.slot_size = 1;
  config.window_length = shape.length();
  rasc::PscOperator op(config, bio::SubstitutionMatrix::blosum62());
  std::vector<rasc::ResultRecord> sink;
  for (auto _ : state) {
    sink.clear();
    op.run_key(il0, il1, sink);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(shape.length()));
}
BENCHMARK(BM_PeBatchEngine);

void BM_XdropUngapped(benchmark::State& state) {
  const auto a = random_residues(400, 5);
  auto b = a;  // homologous: extension actually runs
  util::Xoshiro256 rng(6);
  for (int k = 0; k < 80; ++k) {
    b[rng.bounded(b.size())] = static_cast<std::uint8_t>(rng.bounded(20));
  }
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::xdrop_ungapped_extend(a, b, 200, 200, 4, m, 16));
  }
}
BENCHMARK(BM_XdropUngapped);

void BM_XdropGapped(benchmark::State& state) {
  const auto a = random_residues(400, 7);
  auto b = a;
  util::Xoshiro256 rng(8);
  for (int k = 0; k < 80; ++k) {
    b[rng.bounded(b.size())] = static_cast<std::uint8_t>(rng.bounded(20));
  }
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const align::GapParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::xdrop_gapped_extend(a, b, 200, 200, 4, m, params));
  }
}
BENCHMARK(BM_XdropGapped);

void BM_SmithWaterman(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_residues(n, 9);
  const auto b = random_residues(n, 10);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const align::GapParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(a, b, m, params));
  }
}
BENCHMARK(BM_SmithWaterman)->Arg(100)->Arg(300);

void BM_IndexBuild(benchmark::State& state) {
  sim::ProteinBankConfig config;
  config.count = static_cast<std::size_t>(state.range(0));
  config.seed = 11;
  const bio::SequenceBank bank = sim::generate_protein_bank(config);
  const index::SeedModel model = index::SeedModel::subset_w4();
  for (auto _ : state) {
    index::IndexTable table(bank, model);
    benchmark::DoNotOptimize(table.total_occurrences());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bank.total_residues()));
}
BENCHMARK(BM_IndexBuild)->Arg(50)->Arg(200);

void BM_SixFrameTranslation(benchmark::State& state) {
  sim::GenomeConfig config;
  config.length = 100'000;
  config.seed = 12;
  const bio::Sequence genome = sim::generate_genome(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::translate_six_frames(genome).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(genome.size()));
}
BENCHMARK(BM_SixFrameTranslation);

/// The two simulator engines on one seed key: cost of cycle exactness.
template <bool kCycleExact>
void BM_OperatorEngine(benchmark::State& state) {
  util::Xoshiro256 rng(13);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 4000, rng));
  const index::WindowShape shape{4, 30};
  index::WindowBatch il0(shape.length());
  index::WindowBatch il1(shape.length());
  for (std::uint32_t i = 0; i < 32; ++i) {
    il0.append(bank, index::Occurrence{0, 40 + 17 * i}, shape);
    il1.append(bank, index::Occurrence{0, 41 + 13 * i}, shape);
  }
  rasc::PscConfig config;
  config.num_pes = 32;
  config.window_length = shape.length();
  config.threshold = 40;
  rasc::PscOperator op(config, bio::SubstitutionMatrix::blosum62());
  std::vector<rasc::ResultRecord> sink;
  for (auto _ : state) {
    sink.clear();
    if constexpr (kCycleExact) {
      op.run_key_cycle_exact(il0, il1, sink);
    } else {
      op.run_key(il0, il1, sink);
    }
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          32 * static_cast<std::int64_t>(shape.length()));
}
BENCHMARK(BM_OperatorEngine<false>)->Name("BM_OperatorBatch");
BENCHMARK(BM_OperatorEngine<true>)->Name("BM_OperatorCycleExact");

// ---- step-2 kernel shoot-out --------------------------------------------
// Direct calibrated timing of the host kernels on the same many-vs-one
// workload the step-2 engines run per seed key: one IL0 window scored
// against a batch of IL1 windows at the engines' threshold. The 8-bit
// screen reads the matrix through the engine's once-built biased
// SubstitutionRows, so nothing is built per IL0 window; "simd" includes
// the scalar rescore of its ceiling candidates. The striped transpose is per key
// and timed separately, with window extraction, as the staging case. The
// crossover sweep times whole keys (staging + every IL0 window) to check
// the blocked/SIMD cutover align::kSimdMinBatch.

struct KernelTiming {
  const char* name;
  double cells_per_sec = 0.0;
};

template <typename Fn>
double calibrated_cells_per_sec(std::size_t cells_per_call, Fn&& call) {
  // Warm up, then grow the repetition count until the run is long enough
  // for the steady-state rate to dominate timer overhead.
  call();
  std::size_t reps = 16;
  for (;;) {
    util::Timer timer;
    for (std::size_t r = 0; r < reps; ++r) call();
    const double seconds = timer.seconds();
    if (seconds >= 0.2) {
      return static_cast<double>(reps * cells_per_call) / seconds;
    }
    reps *= 4;
  }
}

void run_step2_kernel_shootout() {
  const index::WindowShape shape{4, 30};
  const std::size_t length = shape.length();
  const std::size_t count = 512;
  util::Xoshiro256 rng(31);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 8000, rng));
  index::WindowBatch batch(length);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.append(bank, index::Occurrence{0, 40 + 13 * i}, shape);
  }
  index::WindowBatch one(length);
  one.append(bank, index::Occurrence{0, 500}, shape);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const std::size_t cells = count * length;

  const int threshold = 38;  // core::PipelineOptions' default

  index::StripedWindows striped;
  striped.assign(batch);
  std::vector<int> scores;
  std::vector<align::WindowScore> passed;
  const align::SubstitutionRows rows(m);

  // "simd-portable" and "simd-avx2" time the screen alone on that tier
  // (the AVX2 row only where the CPU has it, so an AVX-512 host shows both
  // x86 tiers); "simd" is the dispatched tier plus the rescore.
  std::vector<KernelTiming> timings;
  timings.push_back({"scalar", calibrated_cells_per_sec(cells, [&] {
                       align::ungapped_score_one_vs_many(one.window(0), batch,
                                                         m, scores);
                       benchmark::DoNotOptimize(scores.data());
                     })});
  timings.push_back({"blocked", calibrated_cells_per_sec(cells, [&] {
                       align::ungapped_score_one_vs_many_blocked(
                           one.window(0), batch, m, scores);
                       benchmark::DoNotOptimize(scores.data());
                     })});
  timings.push_back({"simd-portable", calibrated_cells_per_sec(cells, [&] {
                       align::ungapped_screen_rows_vs_striped_portable(
                           one.window(0), rows, striped, threshold, passed);
                       benchmark::DoNotOptimize(passed.data());
                     })});
  if (align::ungapped_avx2_available()) {
    timings.push_back({"simd-avx2", calibrated_cells_per_sec(cells, [&] {
                         align::ungapped_screen_rows_vs_striped_avx2(
                             one.window(0), rows, striped, threshold, passed);
                         benchmark::DoNotOptimize(passed.data());
                       })});
  }
  timings.push_back({"simd", calibrated_cells_per_sec(cells, [&] {
                       align::ungapped_hits_rows_vs_striped(
                           one.window(0), rows, striped, batch, m, threshold,
                           passed);
                       benchmark::DoNotOptimize(passed.data());
                     })});

  // Staging: what the engines do once per key and list before any kernel
  // runs -- list a 100-occurrence key's window views and stripe them from
  // the arena. Rated in staged residues per second.
  constexpr std::size_t kStagedWindows = 100;
  std::vector<index::Occurrence> list;
  for (std::uint32_t i = 0; i < kStagedWindows; ++i) {
    list.push_back(index::Occurrence{0, 61 * i});
  }
  index::WindowBatch staged(length);
  index::StripedWindows staged_striped;
  const double staging_per_sec =
      calibrated_cells_per_sec(kStagedWindows * length, [&] {
        index::extract_windows(bank, list, shape, staged);
        staged_striped.assign(staged);
        benchmark::DoNotOptimize(staged_striped.position(0));
      });

  // Crossover: seconds per key of |IL0| IL0 windows against IL1 lists of
  // growing size, blocked vs striped SIMD (the SIMD side pays the
  // transpose, so |IL0| = 1 is its worst case). IL0 windows come from the
  // far end of the pool, so no pair is a window against itself and hits
  // stay as rare as in a real search. The cutover belongs at the first
  // size where SIMD wins for every |IL0|.
  const std::size_t crossover_il0[] = {1, 8};
  const std::size_t crossover_il1[] = {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
  struct Crossover {
    std::size_t il0 = 0;
    std::size_t il1 = 0;
    double blocked_s = 0.0;
    double simd_s = 0.0;
  };
  std::vector<Crossover> crossover;
  for (const std::size_t il0 : crossover_il0) {
    for (const std::size_t il1 : crossover_il1) {
      const index::WindowSpan part = batch.subspan(0, il1);
      const std::size_t key_cells = il0 * il1 * length;
      Crossover row{il0, il1};
      row.blocked_s = static_cast<double>(key_cells) /
                      calibrated_cells_per_sec(key_cells, [&] {
                        for (std::size_t i = 0; i < il0; ++i) {
                          align::ungapped_score_one_vs_many_blocked(
                              batch.window(count - 1 - i), part, m, scores);
                          benchmark::DoNotOptimize(scores.data());
                        }
                      });
      row.simd_s = static_cast<double>(key_cells) /
                   calibrated_cells_per_sec(key_cells, [&] {
                     striped.assign(part);
                     for (std::size_t i = 0; i < il0; ++i) {
                       align::ungapped_hits_rows_vs_striped(
                           batch.window(count - 1 - i), rows, striped, part, m,
                           threshold,
                           passed);
                       benchmark::DoNotOptimize(passed.data());
                     }
                   });
      crossover.push_back(row);
    }
  }

  const double scalar_rate = timings[0].cells_per_sec;
  const char* tier = align::simd_tier_name(align::best_simd_tier());
  std::fprintf(stderr, "\n=== step-2 kernel shoot-out (tier %s) ===\n", tier);
  std::ofstream json("BENCH_step2_kernels.json");
  json << "{\n  \"window_length\": " << length
       << ",\n  \"windows\": " << count << ",\n  \"simd_tier\": \"" << tier
       << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const double speedup = timings[i].cells_per_sec / scalar_rate;
    std::fprintf(stderr, "  %-14s %8.1f Mcells/s  %5.2fx vs scalar\n",
                 timings[i].name, timings[i].cells_per_sec / 1e6, speedup);
    json << "    {\"kernel\": \"" << timings[i].name
         << "\", \"cells_per_sec\": " << timings[i].cells_per_sec
         << ", \"speedup_vs_scalar\": " << speedup << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"staging\": {\"windows\": " << kStagedWindows
       << ", \"residues_per_sec\": " << staging_per_sec << "},\n";
  std::fprintf(stderr, "  staging        %8.1f Mresidues/s (%zu windows)\n",
               staging_per_sec / 1e6, kStagedWindows);
  json << "  \"simd_min_batch\": " << align::kSimdMinBatch
       << ",\n  \"crossover\": [\n";
  for (std::size_t i = 0; i < crossover.size(); ++i) {
    const Crossover& row = crossover[i];
    std::fprintf(stderr,
                 "  key |IL0|=%zu |IL1|=%-3zu blocked %7.2f us simd %7.2f us\n",
                 row.il0, row.il1, row.blocked_s * 1e6, row.simd_s * 1e6);
    json << "    {\"il0\": " << row.il0 << ", \"il1\": " << row.il1
         << ", \"blocked_s\": " << row.blocked_s
         << ", \"simd_s\": " << row.simd_s << "}"
         << (i + 1 < crossover.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote BENCH_step2_kernels.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_step2_kernel_shootout();
  return 0;
}
