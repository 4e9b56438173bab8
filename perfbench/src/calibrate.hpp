// Host-speed calibration for the CPU-bound timings.
//
// On a shared host the same code can run 70% slower for minutes at a
// time with no steal time showing (neighbours on the shared caches,
// memory and cores), which no amount of repetition averages away. A batch repetition's wall is
// therefore reported normalized: multiplied by kReferenceSeconds over the
// mean time a fixed calibration kernel takes right before and right after
// it, on as many threads as the repetition keeps busy. The kernel is part
// of the benchmark, not the library, so a change to the program moves the
// normalized time as it moves the raw one, while a slower host slows the
// repetition and the calibration alike and cancels out. The raw walls are
// kept in the result notes.
#pragma once

#include <cstddef>
#include <vector>

#include "util/timer.hpp"

namespace psc::perfbench {

/// The calibration's seconds on the reference host (4-vCPU Xeon with a
/// 105 MiB L3, AVX2) when it is quiet: normalized times are in that
/// host's seconds.
inline constexpr double kReferenceSeconds = 0.06;

/// MiB the calibration keeps resident once it has run (its lookup
/// table), which a workload leaves out of its peak RSS.
inline constexpr double kCalibrationResidentMb = 32.0;

/// Wall seconds of the fixed calibration kernel on `threads` threads:
/// 128 chunks per thread, pulled from a shared counter as the pipeline's
/// executor shares work, so a momentarily slow thread does fewer of them.
/// Each chunk is an ungapped-extension-like scan whose operands come from
/// a cache-resident array and, at random, from a 32 MiB table.
double calibration_seconds(std::size_t threads);

/// Times back-to-back intervals in reference-host seconds: it calibrates
/// when constructed and again at the end of every interval, and scales an
/// interval's wall by kReferenceSeconds over the mean of the calibrations
/// on either side of it.
class NormalizedClock {
 public:
  explicit NormalizedClock(std::size_t threads)
      : threads_(threads), calibrations_{calibration_seconds(threads)} {}

  /// Starts an interval.
  void start() { timer_.reset(); }

  /// Ends the interval, calibrates, and returns its normalized seconds.
  double stop();

  const std::vector<double>& raw_seconds() const { return raw_; }
  const std::vector<double>& calibrations() const { return calibrations_; }

 private:
  std::size_t threads_;
  std::vector<double> calibrations_;
  std::vector<double> raw_;
  util::Timer timer_;
};

}  // namespace psc::perfbench
