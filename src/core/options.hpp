// Configuration of the bank-versus-bank pipeline (the paper's algorithm,
// section 2): seed model, window geometry, thresholds and the step-2
// execution backend.
#pragma once

#include <cstdint>
#include <string>

#include "align/gapped.hpp"
#include "align/karlin.hpp"
#include "align/gapped_simd.hpp"
#include "align/ungapped_simd.hpp"
#include "index/neighborhood.hpp"
#include "index/seed_model.hpp"
#include "rasc/rasc_backend.hpp"

namespace psc::util {
class Executor;
}  // namespace psc::util

namespace psc::core {

/// Where step 2 (ungapped extension, 97% of software runtime) executes.
enum class Step2Backend {
  kHostSequential,  ///< the paper's software baseline structure
  kHostParallel,    ///< thread-pool over seed keys (multicore host)
  kRasc,            ///< deported to the simulated RASC-100 accelerator
};

/// Which seed model indexes the banks.
enum class SeedModelKind {
  kSubsetW4,        ///< the paper's subset seed (section 4.4)
  kSubsetW4Coarse,  ///< coarser key space for scaled-down timing benches
  kExactW4,         ///< contiguous 4-mer (ablation)
  kExactW3,         ///< contiguous 3-mer (BLAST's word size; ablation)
};

struct PipelineOptions {
  SeedModelKind seed_model = SeedModelKind::kSubsetW4;
  /// Ungapped window: W + 2N residues around the seed (W=4, N=30 -> 64).
  index::WindowShape shape{4, 30};
  /// Step-2 score threshold; pairs at or above it reach step 3. The
  /// paper raises this in the dual-FPGA experiment to thin result traffic
  /// (section 4.1).
  int ungapped_threshold = 38;

  Step2Backend backend = Step2Backend::kHostSequential;
  std::size_t host_threads = 0;  ///< 0 = hardware concurrency

  /// Ignored: steps 2 and 3 always run with a barrier between them.
  /// Kept only because the benchmark's reference options still assign
  /// it; delete it once they stop.
  bool overlap_steps23 = false;

  /// Optional shared executor for the parallel host/index/FPGA paths.
  /// nullptr = use the process-wide util::Executor::shared(). A
  /// long-lived owner (SearchService) points this at its own pool.
  util::Executor* executor = nullptr;

  /// Which ungapped kernel the host backends run (--step2-kernel). kAuto
  /// resolves to the striped SIMD kernel whenever it is exact for the
  /// matrix/window configuration; all kernels produce bit-identical hit
  /// sets, so this is purely a speed/diagnostic knob.
  align::UngappedKernel step2_kernel = align::UngappedKernel::kAuto;

  /// Worker threads for step 3 (gapped extension); Table 7 shows step 3
  /// dominating the accelerated pipeline, and the paper's conclusion
  /// points at multicore hosts. 1 = sequential, 0 = hardware
  /// concurrency (the same convention as host_threads).
  std::size_t step3_threads = 1;

  /// Accelerator settings (used when backend == kRasc). The psc window
  /// length and threshold are overridden from `shape` / `ungapped_threshold`
  /// so the backends always agree.
  rasc::RascStep2Config rasc{};

  /// Step-3 gapped extension parameters.
  align::GapParams gap{};

  /// Which gapped kernel step 3 runs (--step3-kernel). kAuto resolves to
  /// the best SIMD tier that is exact for the matrix/gap configuration;
  /// every kernel is bit-identical to scalar (the 16-bit kernels re-run
  /// a call through the scalar reference when the overflow guard trips;
  /// the 8-bit AVX2 X-drop halves cannot overflow), so this is purely a
  /// speed/diagnostic knob.
  align::GappedKernel step3_kernel = align::GappedKernel::kAuto;
  double e_value_cutoff = 1e-3;
  /// E-value search space override: the subject-side residue total n in
  /// E = m*n*K*exp(-lambda*S). 0 (default) uses the subject bank's own
  /// total. The shard fan-out sets this to the *whole* bank's total from
  /// the manifest, so per-shard passes report the exact E-values the
  /// unsharded bank would (per-shard statistics would inflate every
  /// shard's significance).
  double search_space_residues = 0.0;
  bool with_traceback = false;
  align::KarlinParams stats = align::blosum62_gapped_11_1();
  /// Per-query composition-adjusted lambda for step-3 E-values (Gertz et
  /// al. 2006); see align::composition_adjusted.
  bool composition_based_stats = false;

  /// One knob for both compute stages: sets host_threads and
  /// step3_threads to `threads` (step 3 otherwise defaults to 1 and
  /// silently runs serial). 0 = hardware concurrency for both.
  void set_threads(std::size_t threads);

  void validate() const;
};

/// Builds the configured seed model.
index::SeedModel make_seed_model(SeedModelKind kind);

/// Canonical name of a seed model kind; equals the name() of the model
/// make_seed_model builds ("subset-w4", "subset-w4-coarse", "exact-w4",
/// "exact-w3"), which is also what the index store records in .pscidx
/// files.
std::string seed_model_kind_name(SeedModelKind kind);

/// Parses a seed model kind from its canonical name; throws
/// std::invalid_argument on an unknown name.
SeedModelKind parse_seed_model_kind(const std::string& name);

/// Human-readable backend name (for tables and logs).
std::string backend_name(Step2Backend backend);

/// Human-readable kernel name ("auto", "scalar", "blocked", "simd").
std::string step2_kernel_name(align::UngappedKernel kernel);

/// Parses a --step2-kernel value; throws std::invalid_argument on an
/// unknown name.
align::UngappedKernel parse_step2_kernel(const std::string& name);

/// Human-readable step-3 kernel name ("auto", "scalar", "portable",
/// "avx2").
std::string step3_kernel_name(align::GappedKernel kernel);

/// Parses a --step3-kernel value; throws std::invalid_argument on an
/// unknown name.
align::GappedKernel parse_step3_kernel(const std::string& name);

}  // namespace psc::core
