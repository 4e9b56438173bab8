// Shared infrastructure for the table-reproduction benches.
//
// bench/ answers the paper's questions: the table reproductions, the
// ablations, the extensions, the step-2 and step-3 kernel shoot-outs,
// and two scheduler studies (tenant_fairness, board_residency).
// Serving and storage questions -- queries/sec, latency, store load,
// append and refresh, router fan-out -- belong to perfbench/, whose
// serve_single and serve_cluster workloads also check every reply.
//
// Every table bench reproduces one table of the paper's evaluation
// (section 4) on a scaled synthetic replica of its workload and prints
// the measured table next to the paper's published numbers. Scaling is
// controlled by PSC_SCALE (small | medium | large | <fraction>, default
// small); the genome scales by 0.4x the factor and the banks by 2x so
// that the index-list depths driving the PE-array utilization trends
// stay in a regime where the paper's effects are visible.
//
// Interpretation note (also in EXPERIMENTS.md): baseline columns are
// measured wall-clock on THIS machine, while RASC columns are modeled
// accelerator time (simulated cycles at 100 MHz + DMA model). A 2026
// x86 core is ~50-100x faster per clock than the paper's 1.6 GHz
// Itanium2, while the modeled FPGA stays at the paper's 100 MHz, so
// absolute speedups are smaller than published; the trends -- who wins,
// how speedup grows with bank size and PE count, where step 3 becomes
// the bottleneck -- are the reproduction target.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "blast/tblastn.hpp"
#include "core/pipeline.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace psc::bench {

/// Workload sized for the table benches from PSC_SCALE.
inline sim::PaperWorkload make_bench_workload(std::uint64_t seed = 42) {
  const double scale = sim::scale_from_env();
  sim::ScaledWorkloadConfig config;
  config.scale = 0.4 * scale;
  config.bank_scale = std::min(1.0, 4.0 * scale);
  config.seed = seed;
  const sim::PaperWorkload workload = sim::build_paper_workload(config);
  std::fprintf(stderr,
               "# PSC_SCALE=%g: genome %zu nt (%zu ORF fragments, %zu aa); "
               "banks", scale, workload.genome.size(),
               workload.genome_bank.size(),
               workload.genome_bank.total_residues());
  for (const auto& bank : workload.banks) {
    std::fprintf(stderr, " %s=%zu(%zu aa)", bank.label.c_str(),
                 bank.proteins.size(), bank.proteins.total_residues());
  }
  std::fprintf(stderr, "\n");
  return workload;
}

/// Pipeline options preconfigured for the RASC backend. The timing
/// benches use the coarse subset seed so index-list depths (hence PE
/// utilization) stay in the paper's regime on scaled data; quality
/// comparisons (Table 6) keep the paper-fidelity seed instead.
inline core::PipelineOptions rasc_options(std::size_t pes,
                                          std::size_t fpgas = 1,
                                          int threshold = 38) {
  core::PipelineOptions options;
  options.seed_model = core::SeedModelKind::kSubsetW4Coarse;
  options.backend = core::Step2Backend::kRasc;
  options.rasc.psc.num_pes = pes;
  options.rasc.psc.slot_size = 8;
  options.rasc.num_fpgas = fpgas;
  options.ungapped_threshold = threshold;
  return options;
}

/// Measured wall-clock run of the tblastn baseline against the
/// already-translated genome bank.
struct BaselineRun {
  double seconds = 0.0;
  std::size_t hits = 0;
};

inline BaselineRun run_baseline(const bio::SequenceBank& bank,
                                const bio::SequenceBank& genome_bank) {
  util::Timer timer;
  const blast::TblastnResult result = blast::tblastn_search(
      bank, genome_bank, bio::SubstitutionMatrix::blosum62(),
      blast::TblastnOptions{});
  return BaselineRun{timer.seconds(), result.hits.size()};
}

/// Prints a rendered table plus the paper's reference rows.
inline void print_table(const std::string& title, const util::TextTable& table,
                        const std::string& paper_reference) {
  std::printf("\n=== %s ===\n%s", title.c_str(), table.render().c_str());
  if (!paper_reference.empty()) {
    std::printf("paper reference:\n%s\n", paper_reference.c_str());
  }
}

}  // namespace psc::bench
