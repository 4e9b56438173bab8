// Result types of the bank-versus-bank pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "align/gapped.hpp"
#include "rasc/rasc_backend.hpp"
#include "util/timer.hpp"

namespace psc::core {

/// One reported similarity between a bank-0 protein and a bank-1
/// (translated-genome) fragment.
struct Match {
  std::uint32_t bank0_sequence = 0;
  std::uint32_t bank1_sequence = 0;
  align::Alignment alignment;  ///< protein-space coordinates
  double bit_score = 0.0;
  double e_value = 0.0;
};

/// Work counters of one pipeline run.
struct PipelineCounters {
  std::uint64_t bank0_occurrences = 0;  ///< indexed words, bank 0
  std::uint64_t bank1_occurrences = 0;  ///< indexed words, bank 1
  std::uint64_t step2_pairs = 0;        ///< ungapped extensions performed
  std::uint64_t step2_cells = 0;        ///< substitution cells evaluated
  std::uint64_t step2_hits = 0;         ///< pairs reaching the threshold
  std::uint64_t step3_extensions = 0;   ///< gapped extensions performed
  /// Always equal to step3_extensions since steps 2 and 3 run with a
  /// barrier on every backend; kept because the benchmark and the shard
  /// merge still read it.
  std::uint64_t step3_eager_extensions = 0;
};

/// Wall/modeled seconds per step. For the host backends step2 is measured
/// wall time; for the RASC backend it is the modeled accelerator time
/// (cycles at the configured clock + DMA + overheads), which is the
/// quantity the paper's Tables 2-4 report.
struct StepTimes {
  double step1_index = 0.0;
  double step2_ungapped = 0.0;
  double step3_gapped = 0.0;

  double total() const { return step1_index + step2_ungapped + step3_gapped; }
  double percent(double step) const {
    const double sum = total();
    return sum > 0.0 ? 100.0 * step / sum : 0.0;
  }
};

struct PipelineResult {
  std::vector<Match> matches;  ///< E-value sorted, deduplicated
  PipelineCounters counters;
  StepTimes times;
  /// Host wall time actually spent simulating step 2 (diagnostic; equals
  /// times.step2_ungapped for host backends).
  double step2_wall_seconds = 0.0;
  /// Engine step 2 actually ran: the resolved host kernel name ("simd",
  /// "blocked", "scalar") or "rasc-psc" for the accelerator backend. Used
  /// by the per-kernel throughput report (core/report.hpp).
  std::string step2_engine;
  /// Gapped kernel step 3 actually dispatched to (the resolved
  /// --step3-kernel: "avx2", "portable" or "scalar"); empty when step 3
  /// never ran.
  std::string step3_engine;
  /// Accelerator details when the RASC backend ran (empty otherwise).
  std::vector<rasc::FpgaRunReport> fpga_reports;
  rasc::OperatorStats operator_stats;
};

/// Board-residency accounting of one run, summed over its FPGA reports
/// (rasc/board_cache.hpp): what the run paid in bank-image DMA and what
/// the resident images saved. All zeros for host backends and for the
/// legacy stateless accelerator accounting (no BoardCache configured),
/// except bitstream_loads, which legacy charges every run.
struct BoardStats {
  std::uint64_t bitstream_loads = 0;
  std::uint64_t bank_uploads = 0;
  std::uint64_t board_swaps = 0;
  std::uint64_t bank_uploads_skipped = 0;
  double upload_seconds = 0.0;
  double upload_seconds_saved = 0.0;

  BoardStats& operator+=(const BoardStats& other);
};

/// Sums the residency fields of `reports` (a PipelineResult's
/// fpga_reports, possibly concatenated across shard passes).
BoardStats board_stats(const std::vector<rasc::FpgaRunReport>& reports);

/// The pipeline's total output order: ascending E-value, then query id,
/// subject id, descending score, and alignment coordinates as the final
/// tie-breaks. Total (no two distinct matches compare equal unless they
/// are byte-identical in every ordered field), which is what lets a
/// sharded fan-out merge per-shard results into exactly the sequence the
/// unsharded pass produces.
bool match_order(const Match& a, const Match& b);

/// Removes near-duplicate matches (same sequence pair with mostly
/// overlapping regions; the higher score wins) and sorts the survivors
/// with match_order. Called by the pipeline after step 3; both its sorts
/// use total comparators, so the output sequence depends only on the
/// match *set*, never on the input order or the sort implementation.
void finalize_matches(std::vector<Match>& matches);

}  // namespace psc::core
