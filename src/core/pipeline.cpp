#include "core/pipeline.hpp"

#include <stdexcept>

#include "bio/translate.hpp"
#include "core/step1_index.hpp"
#include "core/step2_host.hpp"
#include "core/step3_gapped.hpp"
#include "util/timer.hpp"

namespace psc::core {

namespace {

/// Runs the configured step-2 backend over prebuilt tables, filling the
/// result's counters/engine/timing fields. Shared by run_pipeline and
/// run_pipeline_with_index so both paths stay bit-identical.
std::vector<align::SeedPairHit> run_step2_backend(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const PipelineOptions& options,
    PipelineResult& result) {
  util::Timer step2_timer;
  std::vector<align::SeedPairHit> hits;
  switch (options.backend) {
    case Step2Backend::kHostSequential: {
      HostStep2Result step2 = run_step2_host(
          bank0, table0, bank1, table1, matrix, options.shape,
          options.ungapped_threshold, options.step2_kernel);
      result.counters.step2_pairs = step2.pairs;
      result.counters.step2_cells = step2.cells;
      result.step2_engine = step2_kernel_name(step2.kernel);
      hits = std::move(step2.hits);
      result.step2_wall_seconds = step2_timer.seconds();
      result.times.step2_ungapped = result.step2_wall_seconds;
      break;
    }
    case Step2Backend::kHostParallel: {
      HostStep2Result step2 = run_step2_host_parallel(
          bank0, table0, bank1, table1, matrix, options.shape,
          options.ungapped_threshold, options.host_threads,
          options.step2_kernel, options.executor);
      result.counters.step2_pairs = step2.pairs;
      result.counters.step2_cells = step2.cells;
      result.step2_engine = step2_kernel_name(step2.kernel);
      hits = std::move(step2.hits);
      result.step2_wall_seconds = step2_timer.seconds();
      result.times.step2_ungapped = result.step2_wall_seconds;
      break;
    }
    case Step2Backend::kRasc: {
      rasc::RascStep2Config config = options.rasc;
      config.psc.window_length = options.shape.length();
      config.psc.threshold = options.ungapped_threshold;
      config.shape = options.shape;
      rasc::RascStep2Result step2 =
          rasc::run_rasc_step2(bank0, table0, bank1, table1, matrix, config);
      result.counters.step2_pairs = step2.stats.comparisons;
      result.counters.step2_cells =
          step2.stats.comparisons * options.shape.length();
      result.step2_engine = "rasc-psc";
      hits = std::move(step2.hits);
      result.step2_wall_seconds = step2_timer.seconds();
      // The paper's Tables 2-4 report the accelerator's execution time,
      // which the simulator models from cycles + transfers.
      result.times.step2_ungapped = step2.modeled_seconds;
      result.fpga_reports = std::move(step2.fpgas);
      result.operator_stats = step2.stats;
      break;
    }
  }
  result.counters.step2_hits = hits.size();
  return hits;
}

/// Steps 2+3 over prebuilt tables, with a barrier between them: the
/// whole step-2 hit set first, then step 3 over it, for every backend.
void run_steps23(const bio::SequenceBank& bank0,
                 const index::IndexTable& table0,
                 const bio::SequenceBank& bank1,
                 const index::IndexTable& table1,
                 const bio::SubstitutionMatrix& matrix,
                 const PipelineOptions& options, PipelineResult& result) {
  std::vector<align::SeedPairHit> hits = run_step2_backend(
      bank0, table0, bank1, table1, matrix, options, result);
  util::Timer step3_timer;
  Step3Result step3 =
      run_step3(bank0, bank1, std::move(hits), matrix, options);
  result.times.step3_gapped = step3_timer.seconds();
  result.step3_engine = step3_kernel_name(step3.kernel);
  result.counters.step3_extensions = step3.extensions;
  result.counters.step3_eager_extensions = step3.extensions;
  result.matches = std::move(step3.matches);
}

}  // namespace

PipelineResult run_pipeline(const bio::SequenceBank& bank0,
                            const bio::SequenceBank& bank1,
                            const PipelineOptions& options,
                            const bio::SubstitutionMatrix& matrix) {
  options.validate();
  PipelineResult result;

  // ---- step 1: indexing -------------------------------------------------
  util::Timer step1_timer;
  const Step1Result step1 = run_step1(bank0, bank1, options);
  result.times.step1_index = step1_timer.seconds();
  result.counters.bank0_occurrences = step1.table0.total_occurrences();
  result.counters.bank1_occurrences = step1.table1.total_occurrences();

  // ---- steps 2 + 3 ---------------------------------------------------------
  run_steps23(bank0, step1.table0, bank1, step1.table1, matrix, options,
              result);
  return result;
}

PipelineResult run_pipeline_with_index(const bio::SequenceBank& bank0,
                                       const bio::SequenceBank& bank1,
                                       const index::IndexTable& table1,
                                       const PipelineOptions& options,
                                       const bio::SubstitutionMatrix& matrix) {
  options.validate();
  const index::SeedModel model = make_seed_model(options.seed_model);
  if (model.key_space() != table1.key_space()) {
    throw std::invalid_argument(
        "run_pipeline_with_index: table1 key space does not match the "
        "configured seed model");
  }
  PipelineResult result;

  // ---- step 1: only the query side needs indexing -----------------------
  util::Timer step1_timer;
  const index::IndexTable table0(bank0, model);
  result.times.step1_index = step1_timer.seconds();
  result.counters.bank0_occurrences = table0.total_occurrences();
  result.counters.bank1_occurrences = table1.total_occurrences();

  // ---- steps 2 + 3 ---------------------------------------------------------
  run_steps23(bank0, table0, bank1, table1, matrix, options, result);
  return result;
}

PipelineResult run_pipeline_genome(const bio::SequenceBank& bank0,
                                   const bio::Sequence& genome,
                                   const PipelineOptions& options,
                                   const bio::SubstitutionMatrix& matrix) {
  const bio::SequenceBank bank1 =
      bio::frames_to_bank(bio::translate_six_frames(genome));
  return run_pipeline(bank0, bank1, options, matrix);
}

}  // namespace psc::core
