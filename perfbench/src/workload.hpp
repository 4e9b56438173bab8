// The four workloads and what each returns.
//
// A run sets the workload up (several times when it measures setup_s,
// keeping the last), computes or prepares the references, then measures
// one phase of `seconds`. With tracing off the end-to-end metrics come
// from it; with tracing on the per-layer metrics do.
//
// Tracing costs the measured phase nothing: spans are recorded after the
// phase from timestamps and result structs the untraced phase takes and
// returns as well, so the traced and untraced phases run the same code
// and the tracing overhead is 0 by construction (the result notes say
// so rather than timing a second phase).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace psc::perfbench {

/// Set-ups per run when setup_s is measured (the median is reported).
inline constexpr int kSetupRepeats = 5;
/// Most of the root spans' time the layers may leave unattributed.
inline constexpr double kLayerTolerance = 0.05;

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< scratch directory for stores, inside the checkout
  std::size_t threads = 1;  ///< worker threads (nproc)
  Tracer* tracer = nullptr; ///< set when trace is on

  int setup_repeats() const { return trace ? 1 : kSetupRepeats; }
};

struct Outcome {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  JsonObject inputs;  ///< sizes, scales and digests of what was generated
  JsonObject notes;   ///< engines, sample counts, checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< mismatches + errors + rejections + timeouts
  std::uint64_t mismatches = 0;  ///< replies whose bytes differ from the reference
  std::map<std::string, std::uint64_t> errors;  ///< failed requests by error
  std::vector<std::string> invalid;  ///< reasons the run cannot be trusted
};

/// Peak RSS of the timed phase (reset_peak_rss() just before it), less
/// the calibration table every workload's set-up has made resident.
inline double program_peak_rss_mb() {
  return peak_rss_mb() - kCalibrationResidentMb;
}

Outcome run_batch_host(const Context& context);
Outcome run_batch_rasc(const Context& context);
Outcome run_serve_single(const Context& context);
Outcome run_serve_cluster(const Context& context);

/// Adds the traced spans' layer table and layer-sum check to `outcome`
/// (notes plus trace.unattributed_ratio) and marks the run invalid when
/// the layers miss the tolerance. `independent` says whether the child
/// spans come from a clock other than the root's (the pipeline's own
/// step times inside an externally timed pass) or are cut from the same
/// timestamps as the root, which makes the check hold by construction.
void account_layers(const Tracer& tracer, bool independent, Outcome& outcome);

}  // namespace psc::perfbench
