#include "rasc/gap_operator.hpp"

#include <stdexcept>

namespace psc::rasc {

void GapOperatorConfig::validate() const {
  if (num_lanes == 0) throw std::invalid_argument("GapOperator: zero lanes");
  if (window_length == 0) {
    throw std::invalid_argument("GapOperator: zero window length");
  }
  if (band == 0) throw std::invalid_argument("GapOperator: zero band");
  if (clock_hz <= 0) throw std::invalid_argument("GapOperator: clock <= 0");
}

GapOperator::GapOperator(const GapOperatorConfig& config,
                         const bio::SubstitutionMatrix& rom,
                         const align::GapParams& gap_params)
    : config_(config),
      rom_(&rom),
      gap_params_(gap_params),
      extender_(rom, gap_params, config.kernel) {
  config_.validate();
}

void GapOperator::run_pairs(index::WindowSpan batch0,
                            index::WindowSpan batch1,
                            std::vector<ResultRecord>& out) {
  if (batch0.size() != batch1.size()) {
    throw std::invalid_argument("GapOperator::run_pairs: batch size mismatch");
  }
  if (batch0.window_length() != config_.window_length ||
      batch1.window_length() != config_.window_length) {
    throw std::invalid_argument(
        "GapOperator::run_pairs: window length mismatch");
  }
  const std::size_t pairs = batch0.size();
  if (pairs == 0) return;

  // Functional pass: every lane evaluates the same banded recurrence, so
  // the host kernel is the lane's exact behaviour.
  for (std::size_t i = 0; i < pairs; ++i) {
    const int score =
        extender_.banded_window(batch0.window(i), batch1.window(i),
                                config_.band);
    ++stats_.pairs;
    if (score >= config_.threshold) {
      ++stats_.survivors;
      out.push_back(ResultRecord{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(i), score});
    }
  }

  // Timing: lanes work independently; pairs round-robin across them.
  // Each pair: M cycles to stream both windows (parallel ports) plus
  // 2M - 1 anti-diagonal compute cycles.
  const std::uint64_t per_pair =
      config_.window_length +
      align::banded_window_cycles(config_.window_length);
  const std::uint64_t rounds =
      (pairs + config_.num_lanes - 1) / config_.num_lanes;
  stats_.cycles_load += rounds * config_.window_length;
  stats_.cycles_compute +=
      rounds * (per_pair - config_.window_length);
  // Lanes idle in the final partial round.
  stats_.lane_ticks_busy += pairs;
  stats_.lane_ticks_total += rounds * config_.num_lanes;
}

}  // namespace psc::rasc
