#include "core/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dispatch.hpp"
#include "core/step1_index.hpp"
#include "core/step3_gapped.hpp"
#include "rasc/rasc_backend.hpp"
#include "util/timer.hpp"

namespace psc::core {

HybridResult run_hybrid_pipeline(const bio::SequenceBank& bank0,
                                 const bio::SequenceBank& bank1,
                                 const HybridOptions& options,
                                 const bio::SubstitutionMatrix& matrix) {
  PipelineOptions base = options.base;
  base.backend = Step2Backend::kRasc;
  base.rasc.num_fpgas = 1;  // FPGA 1 is occupied by the gap operator
  base.validate();
  options.gap.validate();
  if (options.host_fraction < 0.0 || options.host_fraction > 1.0) {
    throw std::invalid_argument(
        "run_hybrid_pipeline: host_fraction must be in [0,1]");
  }
  // The gapped windows are read in place from the banks' arenas, so
  // their flank must fit the arena padding like step 2's.
  if (options.gap.window_length < base.shape.seed_width ||
      (options.gap.window_length - base.shape.seed_width) / 2 >
          bio::SequenceBank::kPadding) {
    throw std::invalid_argument(
        "run_hybrid_pipeline: gap window flank exceeds the bank padding");
  }

  HybridResult result;

  // ---- step 1: indexing (host) -------------------------------------------
  util::Timer step1_timer;
  const Step1Result step1 = run_step1(bank0, bank1, base);
  result.step1_seconds = step1_timer.seconds();
  result.counters.bank0_occurrences = step1.table0.total_occurrences();
  result.counters.bank1_occurrences = step1.table1.total_occurrences();

  // ---- step 2: PSC operator on FPGA 0 (+ optional host share) -------------
  rasc::RascStep2Config psc_config = base.rasc;
  psc_config.psc.window_length = base.shape.length();
  psc_config.psc.threshold = base.ungapped_threshold;
  psc_config.shape = base.shape;
  std::vector<align::SeedPairHit> step2_hits;
  if (options.host_fraction > 0.0) {
    // Cores + FPGA co-execution: the key space is weight-split between
    // the host's SIMD kernel and the PSC operator (core/dispatch.hpp);
    // identical kernels on both sides keep the merged hit set exact.
    DispatchConfig dispatch;
    dispatch.host_fraction = options.host_fraction;
    dispatch.host_threads = base.host_threads;
    dispatch.kernel = base.step2_kernel;
    dispatch.rasc = psc_config;
    dispatch.shape = base.shape;
    dispatch.threshold = base.ungapped_threshold;
    DispatchResult dispatched = run_step2_dispatch(
        bank0, step1.table0, bank1, step1.table1, matrix, dispatch);
    result.psc_seconds = dispatched.accel_seconds;
    result.host_step2_seconds = dispatched.host_seconds;
    result.counters.step2_pairs = dispatched.pairs;
    result.fpga_reports = std::move(dispatched.fpga_reports);
    step2_hits = std::move(dispatched.hits);
  } else {
    rasc::RascStep2Result step2 = rasc::run_rasc_step2(
        bank0, step1.table0, bank1, step1.table1, matrix, psc_config);
    result.psc_seconds = step2.modeled_seconds;
    result.psc_stats = step2.stats;
    result.counters.step2_pairs = step2.stats.comparisons;
    result.fpga_reports = std::move(step2.fpgas);
    step2_hits = std::move(step2.hits);
  }
  result.counters.step2_cells =
      result.counters.step2_pairs * base.shape.length();
  result.counters.step2_hits = step2_hits.size();

  // ---- banded screen: gap operator on FPGA 1 ------------------------------
  // The longer gapped windows around every surviving hit pair, read in
  // place from the arenas, stream through the lanes.
  const index::WindowShape gap_shape{
      base.shape.seed_width,
      (options.gap.window_length - base.shape.seed_width) / 2};
  rasc::GapOperatorConfig gap_config = options.gap;
  gap_config.window_length = gap_shape.length();  // honour odd sizes
  // The functional banded pass rides the same --step3-kernel selection
  // as the host extension stage (bit-identical, so the screen's
  // survivor set is unchanged).
  gap_config.kernel = base.step3_kernel;

  index::WindowBatch windows0(gap_shape.length());
  index::WindowBatch windows1(gap_shape.length());
  for (const align::SeedPairHit& hit : step2_hits) {
    windows0.append(bank0, hit.bank0, gap_shape);
    windows1.append(bank1, hit.bank1, gap_shape);
  }

  rasc::GapOperator gap_operator(gap_config, matrix, base.gap);
  std::vector<rasc::ResultRecord> screened;
  gap_operator.run_pairs(windows0, windows1, screened);
  result.gap_seconds = gap_operator.modeled_seconds();
  result.gap_stats = gap_operator.stats();
  result.screen_survivors = screened.size();

  std::vector<align::SeedPairHit> survivors;
  survivors.reserve(screened.size());
  for (const rasc::ResultRecord& record : screened) {
    survivors.push_back(step2_hits[record.il0_index]);
  }

  // ---- residual step 3: host extension of survivors ----------------------
  util::Timer step3_timer;
  Step3Result step3 =
      run_step3(bank0, bank1, std::move(survivors), matrix, base);
  result.host_step3_seconds = step3_timer.seconds();
  result.counters.step3_extensions = step3.extensions;
  result.matches = std::move(step3.matches);
  return result;
}

}  // namespace psc::core
