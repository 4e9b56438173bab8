// In-memory spans recorded from outside the program: the benchmark wraps
// its calls into each module's public functions (and reads the step
// times the pipeline reports in PipelineResult) and records one span per
// layer boundary. Spans are kept in memory during the run and written
// out at the end.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (the union, so overlapping children
// count once). The layer-sum check asks that the non-root layers account
// for the root spans' time -- the end-to-end figure -- to within a
// tolerance; the remainder is the root's own self time, "unattributed".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace psc::perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t parent = kNoParent;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Seconds from the tracer's epoch to `at`.
  double offset(Clock::time_point at) const {
    return std::chrono::duration<double>(at - epoch_).count();
  }

  /// Records a finished span and returns its id. A child is clipped to
  /// its parent's interval, so a subtree never reaches outside its root.
  std::int64_t record(const std::string& name, double start, double end,
                      std::int64_t parent, std::uint64_t request);

  std::vector<Span> spans() const;

  /// Writes every span as a JSON array of {name, start, end, parent,
  /// request} objects (times in seconds since the epoch).
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Self time of every span, index-aligned with `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> layer_self_times(const std::vector<Span>& spans);

struct LayerCheck {
  double root_seconds = 0.0;        ///< summed root durations (end to end)
  double attributed_seconds = 0.0;  ///< summed self time of non-root spans
  double unattributed_ratio = 0.0;  ///< root self time / root_seconds
  bool ok = false;                  ///< unattributed_ratio <= tolerance
};

LayerCheck check_layer_sum(const std::vector<Span>& spans, double tolerance);

}  // namespace psc::perfbench
