// Sample statistics and the result file format of the benchmark.
//
// Timings are reported as a median plus a tail percentile, and a tail
// percentile only when at least kMinBeyond samples lie beyond it: with
// fewer, "p99" would just be the maximum of a small sample. Percentiles
// use the nearest-rank rule on the sorted samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace psc::perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the p-th quantile (p in (0, 1]) among n
/// sorted samples: ceil(p * n), at least 1.
std::size_t nearest_rank(std::size_t n, double p);

/// Samples strictly above the nearest-rank position of quantile p.
std::size_t samples_beyond(std::size_t n, double p);

/// True when quantile p of n samples has at least kMinBeyond beyond it.
bool tail_supported(std::size_t n, double p);

/// Nearest-rank quantile p of `samples`; 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Tail quantile p under the kMinBeyond rule: the percentile when it is
/// supported, 0 otherwise (the result file records which).
double tail_percentile(const std::vector<double>& samples, double p);

/// util::percentile(samples, 0.5) (the mean of the middle pair for even
/// counts); 0 when empty.
double median(const std::vector<double>& samples);

/// Resets this process's peak resident set (VmHWM) to its current RSS;
/// false when the kernel refuses. A workload calls it just before its
/// timed phase, so the peak it then reads is the program's, not the
/// harness's set-up and references.
bool reset_peak_rss();

/// Peak resident set (VmHWM) of this process since start-up or the last
/// reset_peak_rss(), in MiB.
double peak_rss_mb();

/// A flat JSON object built field by field. Numbers keep all their
/// digits (%.17g); nested objects are inserted as already-rendered text.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double value);
  JsonObject& set(const std::string& key, std::uint64_t value);
  JsonObject& set(const std::string& key, bool value);
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);
  JsonObject& set(const std::string& key, const JsonObject& value);
  /// Inserts pre-rendered JSON (an array, say) verbatim.
  JsonObject& set_raw(const std::string& key, std::string json);

  bool empty() const { return fields_.empty(); }
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON string literal with the required escapes.
std::string json_quote(const std::string& text);

/// %.17g rendering; non-finite values become 0 (JSON has no NaN).
std::string json_number(double value);

/// A JSON array of numbers.
std::string json_array(const std::vector<double>& values);

}  // namespace psc::perfbench
