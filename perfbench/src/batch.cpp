// batch_host and batch_rasc: the paper's own job, a protein bank against
// the six-frame-translated genome through run_pipeline_with_index with
// the subject index built in set-up. No store, service or net code runs.
//
// Both time repetitions of the same job: the bank, cut into one or more
// passes run in order. batch_host runs the whole bank as one pass on the
// host-parallel backend; batch_rasc runs it as several passes on the RASC
// model that share one fresh rasc::BoardCache per repetition, as the
// service's passes do.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "calibrate.hpp"
#include "core/pipeline.hpp"
#include "core/result_codec.hpp"
#include "inputs.hpp"
#include "rasc/board_cache.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace psc::perfbench {

namespace {

/// Repetitions a timed phase runs at least, whatever its budget.
constexpr std::size_t kMinRepetitions = 2;

/// What a batch workload runs.
struct BatchJob {
  double genome_scale = 0.0;
  double bank_scale = 0.0;
  std::size_t bank_label = 0;  ///< index into PaperWorkload::banks
  std::size_t residues = 0;    ///< the job: this many residues of that bank
  std::size_t passes = 1;      ///< slices of the bank, run in order
  std::size_t fpgas = 0;       ///< > 0: passes share a BoardCache of this size
  std::size_t calibration_threads = 1;  ///< threads a repetition keeps busy
  core::PipelineOptions options;
};

/// One timed repetition: every pass, in order.
struct Repetition {
  double start = 0.0;                ///< tracer offset (traced runs only)
  double wall = 0.0;
  std::vector<double> pass_starts;   ///< seconds after `start`
  std::vector<core::PipelineResult> results;
};

struct BatchSetup {
  sim::PaperWorkload inputs;
  bio::SequenceBank bank{bio::SequenceKind::kProtein};
  std::optional<index::IndexTable> table;  ///< subject index, built in set-up
};

/// Generates the inputs and builds the subject index setup_repeats()
/// times, keeping the last set-up; returns the median set-up seconds in
/// reference-host seconds.
double set_up(const Context& context, const BatchJob& job, BatchSetup& setup,
              Outcome& outcome) {
  const index::SeedModel model = core::make_seed_model(job.options.seed_model);
  NormalizedClock clock(context.threads);
  std::vector<double> samples;
  for (int r = 0; r < context.setup_repeats(); ++r) {
    setup = BatchSetup{};
    clock.start();
    setup.inputs = make_paper_inputs(context.seed, job.genome_scale, job.bank_scale);
    setup.bank = take_residues(setup.inputs.banks[job.bank_label].proteins,
                               job.residues);
    setup.table = index::IndexTable::build_parallel(
        setup.inputs.genome_bank, model, context.threads);
    // Warm-up: one small pass starts the executor's workers and faults
    // the index pages in.
    (void)core::run_pipeline_with_index(slice_bank(setup.bank, 0, 4),
                                        setup.inputs.genome_bank,
                                        *setup.table, job.options);
    samples.push_back(clock.stop());
  }
  outcome.notes.set("raw_setup_s", median(clock.raw_seconds()));
  return median(samples);
}

void describe_inputs(const Context& context, const BatchJob& job,
                     const BatchSetup& setup, Outcome& outcome) {
  outcome.inputs.set("genome_scale", job.genome_scale)
      .set("bank_scale", job.bank_scale)
      .set("genome_nt", static_cast<std::uint64_t>(setup.inputs.genome.size()))
      .set("subject_fragments",
           static_cast<std::uint64_t>(setup.inputs.genome_bank.size()))
      .set("subject_residues",
           static_cast<std::uint64_t>(setup.inputs.genome_bank.total_residues()))
      .set("proteins", static_cast<std::uint64_t>(setup.bank.size()))
      .set("protein_residues",
           static_cast<std::uint64_t>(setup.bank.total_residues()))
      .set("passes", static_cast<std::uint64_t>(job.passes))
      .set("threads", static_cast<std::uint64_t>(job.options.host_threads))
      .set("subject_digest", std::to_string(bank_digest(setup.inputs.genome_bank)))
      .set("protein_digest", std::to_string(bank_digest(setup.bank)))
      .set("seed", context.seed);
}

/// Seconds of each repetition.
std::vector<double> walls(const std::vector<Repetition>& reps) {
  std::vector<double> out;
  for (const Repetition& rep : reps) out.push_back(rep.wall);
  return out;
}

/// Median over repetitions of `field` summed over each repetition's passes.
template <typename Field>
double median_per_repetition(const std::vector<Repetition>& reps,
                             const Field& field) {
  std::vector<double> values;
  for (const Repetition& rep : reps) {
    double sum = 0.0;
    for (const core::PipelineResult& result : rep.results) sum += field(result);
    values.push_back(sum);
  }
  return median(values);
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return static_cast<double>(part) /
         static_cast<double>(std::max<std::uint64_t>(1, whole));
}

/// The per-layer metrics of a traced phase, and one span per step of
/// every pass under one root per repetition. Step times come from
/// PipelineResult (the pipeline's own clock), the root from the wall
/// around the calls, so the layer-sum check compares two clocks.
void record_layers(const Context& context, const BatchJob& job,
                   const std::vector<Repetition>& reps, Outcome& outcome) {
  const bool rasc = job.options.backend == core::Step2Backend::kRasc;
  for (const Repetition& rep : reps) {
    const std::int64_t root = context.tracer->record(
        "batch.repetition", rep.start, rep.start + rep.wall, kNoParent, 0);
    for (std::size_t p = 0; p < rep.results.size(); ++p) {
      const core::PipelineResult& result = rep.results[p];
      double at = rep.start + rep.pass_starts[p];
      context.tracer->record("core.step1", at, at + result.times.step1_index,
                             root, p);
      at += result.times.step1_index;
      context.tracer->record(rasc ? "rasc.sim" : "core.step2", at,
                             at + result.step2_wall_seconds, root, p);
      at += result.step2_wall_seconds;
      // Overlapped step 3 reports only its tail past step 2, so the
      // steps cover the pass once.
      context.tracer->record("core.step3", at, at + result.times.step3_gapped,
                             root, p);
    }
  }

  // Counters are deterministic: the last repetition's stand for all.
  std::uint64_t pairs = 0, hits = 0, cells = 0, extensions = 0, eager = 0,
                matches = 0, occurrences = 0;
  for (const core::PipelineResult& result : reps.back().results) {
    pairs += result.counters.step2_pairs;
    hits += result.counters.step2_hits;
    cells += result.counters.step2_cells;
    extensions += result.counters.step3_extensions;
    eager += result.counters.step3_eager_extensions;
    matches += result.matches.size();
    occurrences += result.counters.bank0_occurrences;
  }
  const double step1 = median_per_repetition(
      reps, [](const core::PipelineResult& r) { return r.times.step1_index; });
  const double step2_wall = median_per_repetition(
      reps, [](const core::PipelineResult& r) { return r.step2_wall_seconds; });
  outcome.layers = {
      {"core.step1_s", step1},
      // Step 1 of run_pipeline_with_index is the query-side index build.
      {"index.query_build_s", step1},
      {"index.query_occurrences", static_cast<double>(occurrences)},
      {"core.step3_s",
       median_per_repetition(
           reps, [](const core::PipelineResult& r) { return r.times.step3_gapped; })},
      {"core.step2_pairs", static_cast<double>(pairs)},
      {"core.step2_hit_ratio", ratio(hits, pairs)},
      {"core.step3_extensions", static_cast<double>(extensions)},
      {"core.step3_eager_ratio", ratio(eager, extensions)},
      {"core.matches", static_cast<double>(matches)},
  };
  if (!rasc) {
    outcome.layers["core.step2_s"] = step2_wall;
    outcome.layers["align.step2_cells"] = static_cast<double>(cells);
    outcome.layers["align.step2_cells_per_s"] = static_cast<double>(cells) / step2_wall;
    return;
  }

  // The modeled breakdown follows the critical (slowest) FPGA of each
  // pass, so compute + transfer + overhead adds up to the modeled
  // step-2 seconds.
  double compute = 0.0, transfer = 0.0, overhead = 0.0, accel = 0.0;
  std::uint64_t uploads = 0, skipped = 0;
  rasc::OperatorStats ops;
  for (const core::PipelineResult& result : reps.back().results) {
    accel += result.times.step2_ungapped;
    const auto critical = std::max_element(
        result.fpga_reports.begin(), result.fpga_reports.end(),
        [](const rasc::FpgaRunReport& a, const rasc::FpgaRunReport& b) {
          return a.total_seconds() < b.total_seconds();
        });
    if (critical != result.fpga_reports.end()) {
      compute += critical->compute_seconds;
      transfer += critical->transfer_seconds;
      overhead += critical->overhead_seconds;
    }
    const core::BoardStats board = core::board_stats(result.fpga_reports);
    uploads += board.bank_uploads;
    skipped += board.bank_uploads_skipped;
    ops += result.operator_stats;
  }
  outcome.layers["accel_modeled_s"] = accel;
  outcome.layers["rasc.modeled_compute_s"] = compute;
  outcome.layers["rasc.modeled_transfer_s"] = transfer;
  outcome.layers["rasc.modeled_overhead_s"] = overhead;
  outcome.layers["rasc.pe_utilization"] = ops.utilization();
  outcome.layers["rasc.stall_ratio"] = ratio(ops.cycles_stall, ops.cycles_total());
  outcome.layers["rasc.bank_uploads"] = static_cast<double>(uploads);
  outcome.layers["rasc.uploads_skipped"] = static_cast<double>(skipped);
  outcome.layers["rasc.sim_wall_s"] = step2_wall;
}

Outcome run_batch(const Context& context, BatchJob job) {
  BatchSetup setup;
  Outcome outcome;
  const double setup_seconds = set_up(context, job, setup, outcome);
  describe_inputs(context, job, setup, outcome);
  if (job.fpgas > 0) job.options.rasc.bank_image_id = bank_digest(setup.inputs.genome_bank);

  std::vector<bio::SequenceBank> slices;
  const std::size_t per_pass = (setup.bank.size() + job.passes - 1) / job.passes;
  for (std::size_t p = 0; p < job.passes; ++p) {
    slices.push_back(slice_bank(setup.bank, p * per_pass, (p + 1) * per_pass));
  }

  // References, from a serial index that is gone before the timed phase.
  std::vector<Bytes> reference;
  {
    util::Timer timer;
    const index::IndexTable serial_table(
        setup.inputs.genome_bank, core::make_seed_model(job.options.seed_model));
    for (const bio::SequenceBank& slice : slices) {
      reference.push_back(reference_batch(slice, setup.inputs.genome_bank,
                                          serial_table, job.options,
                                          context.threads));
    }
    outcome.notes.set("reference_s", timer.seconds());
  }

  // The timed phase: repetitions back to back for the run's seconds,
  // each also timed in reference-host seconds.
  NormalizedClock clock(job.calibration_threads);
  const bool rss_reset = reset_peak_rss();
  std::vector<Repetition> reps;
  std::vector<double> normalized;
  util::Timer phase;
  while (reps.size() < kMinRepetitions || phase.seconds() < context.seconds) {
    std::optional<rasc::BoardCache> board;
    core::PipelineOptions options = job.options;
    if (job.fpgas > 0) {
      board.emplace(job.fpgas);
      options.rasc.board = &*board;
    }
    Repetition rep;
    if (context.tracer) rep.start = context.tracer->offset(Tracer::Clock::now());
    clock.start();
    util::Timer timer;
    for (const bio::SequenceBank& slice : slices) {
      rep.pass_starts.push_back(timer.seconds());
      rep.results.push_back(core::run_pipeline_with_index(
          slice, setup.inputs.genome_bank, *setup.table, options));
    }
    rep.wall = timer.seconds();
    normalized.push_back(clock.stop());
    for (std::size_t p = 0; p < rep.results.size(); ++p) {
      ++outcome.attempted;
      if (core::encode_matches(rep.results[p].matches) != reference[p]) {
        ++outcome.mismatches;
        ++outcome.failed;
      }
    }
    reps.push_back(std::move(rep));
  }
  const double peak_rss = program_peak_rss_mb();

  const double wall = median(normalized);
  double total = 0.0;
  for (const double seconds : normalized) total += seconds;
  outcome.end_to_end = {
      {"setup_s", setup_seconds},
      {"wall_s", wall},
      // The batch job is the request: jobs completed per second.
      {"throughput_qps", static_cast<double>(reps.size()) / total},
      {"latency_p50_ms", wall * 1e3},
      {"peak_rss_mb", peak_rss},
  };
  const core::PipelineResult& last = reps.back().results.back();
  std::uint64_t pairs = 0;
  for (const core::PipelineResult& result : reps.back().results) {
    pairs += result.counters.step2_pairs;
  }
  outcome.notes.set("step2_engine", last.step2_engine)
      .set("step3_engine", last.step3_engine)
      .set("step2_pairs", pairs)
      .set("proteins_per_s", static_cast<double>(setup.bank.size() * reps.size()) / total)
      .set("peak_rss_reset", rss_reset)
      .set("raw_wall_s", median(walls(reps)))
      .set_raw("repetition_walls_s", json_array(walls(reps)))
      .set_raw("calibration_s", json_array(clock.calibrations()));
  if (job.fpgas > 0) {
    double modeled = 0.0;
    for (const core::PipelineResult& result : reps.back().results) {
      modeled += result.times.step2_ungapped;
    }
    // Modeled accelerator seconds stand on their own line, never in a wall.
    std::fprintf(stderr, "# accel_modeled_s %.6f (modeled, not wall)\n", modeled);
    outcome.notes.set("accel_modeled_s", modeled);
  }

  if (context.tracer) {
    record_layers(context, job, reps, outcome);
    account_layers(*context.tracer, /*independent=*/true, outcome);
  }
  return outcome;
}

}  // namespace

Outcome run_batch_host(const Context& context) {
  // 800k residues (about 2400 proteins) of the scaled "30K" bank against
  // a 1.76 Mnt genome, as one pass.
  BatchJob job;
  job.genome_scale = 0.008;
  job.bank_scale = 0.12;
  job.bank_label = 3;
  job.residues = 800'000;
  job.options.backend = core::Step2Backend::kHostParallel;
  job.options.set_threads(context.threads);
  job.calibration_threads = job.options.host_threads;
  return run_batch(context, job);
}

Outcome run_batch_rasc(const Context& context) {
  // 80k residues (about 240 proteins) of the scaled "3K" bank against a
  // 0.88 Mnt genome on the 192-PE, two-FPGA model, as 4 passes that share
  // one BoardCache.
  BatchJob job;
  job.genome_scale = 0.004;
  job.bank_scale = 0.16;
  job.bank_label = 1;
  job.residues = 80'000;
  job.passes = 4;
  job.fpgas = 2;
  job.options.seed_model = core::SeedModelKind::kSubsetW4Coarse;
  job.options.backend = core::Step2Backend::kRasc;
  job.options.set_threads(context.threads);
  job.options.rasc.psc.num_pes = 192;
  job.options.rasc.psc.slot_size = 8;
  job.options.rasc.num_fpgas = job.fpgas;
  // The cycle simulator, most of a repetition, runs on one thread.
  job.calibration_threads = 1;
  return run_batch(context, job);
}

}  // namespace psc::perfbench
