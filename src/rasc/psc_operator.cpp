#include "rasc/psc_operator.hpp"

#include <algorithm>
#include <stdexcept>

namespace psc::rasc {

OperatorStats& OperatorStats::operator+=(const OperatorStats& other) {
  cycles_load += other.cycles_load;
  cycles_compute += other.cycles_compute;
  cycles_stall += other.cycles_stall;
  cycles_drain += other.cycles_drain;
  comparisons += other.comparisons;
  hits += other.hits;
  rounds += other.rounds;
  keys += other.keys;
  pe_ticks_busy += other.pe_ticks_busy;
  pe_ticks_total += other.pe_ticks_total;
  return *this;
}

namespace {

/// IL1 windows scored per tile by the batch engine: the tile's striped
/// image (kIl1Tile x window_length bytes) stays cache-resident while every
/// loaded PE's IL0 window streams past it, and the per-tile scratch does
/// not grow with the IL1 list.
constexpr std::size_t kIl1Tile = 256;

}  // namespace

PscOperator::PscOperator(const PscConfig& config,
                         const bio::SubstitutionMatrix& rom)
    : config_(config),
      rom_(&rom),
      cascade_(config.num_slots(), config.fifo_depth),
      finder_(align::UngappedKernel::kAuto, rom, config.threshold),
      counts_(kIl1Tile + 1) {
  config_.validate();
  slots_.reserve(config_.num_slots());
  std::size_t remaining = config_.num_pes;
  for (std::size_t s = 0; s < config_.num_slots(); ++s) {
    const std::size_t in_slot = std::min(config_.slot_size, remaining);
    slots_.emplace_back(s, in_slot, config_.window_length, *rom_,
                        config_.threshold);
    remaining -= in_slot;
  }
}

void PscOperator::reset_array() {
  for (auto& slot : slots_) slot.reset();
}

double PscOperator::modeled_seconds() const {
  return static_cast<double>(stats_.cycles_total()) / config_.clock_hz;
}

void PscOperator::score_tile(index::WindowSpan il0, std::size_t first,
                             std::size_t loaded, index::WindowSpan tile,
                             std::size_t tile_first,
                             std::vector<ResultRecord>& out) {
  const std::size_t width = tile.size();
  finder_.assign(tile);
  // Score PE by PE (one kernel call per loaded IL0 window), keeping only
  // passing pairs and counting them per IL1 window.
  pending_.clear();
  std::fill_n(counts_.begin(), width + 1, 0u);
  for (std::size_t i = 0; i < loaded; ++i) {
    finder_.hits(il0.window(first + i), passed_);
    for (const align::WindowScore& hit : passed_) {
      pending_.push_back(
          ResultRecord{static_cast<std::uint32_t>(first + i),
                       static_cast<std::uint32_t>(tile_first + hit.window),
                       hit.score});
      ++counts_[hit.window + 1];
    }
  }
  // Counting sort into the array's completion order: IL1 window major,
  // then IL0 window (pending_ is already IL0-ordered per IL1 window).
  for (std::size_t j = 0; j < width; ++j) counts_[j + 1] += counts_[j];
  const std::size_t base = out.size();
  out.resize(base + pending_.size());
  for (const ResultRecord& record : pending_) {
    out[base + counts_[record.il1_index - tile_first]++] = record;
  }
}

void PscOperator::run_key(index::WindowSpan il0, index::WindowSpan il1,
                          std::vector<ResultRecord>& out) {
  const std::size_t length = config_.window_length;
  if (il0.window_length() != length || il1.window_length() != length) {
    throw std::invalid_argument("PscOperator::run_key: window length mismatch");
  }
  if (il0.empty() || il1.empty()) return;
  ++stats_.keys;

  const std::size_t capacity = cascade_.total_capacity();
  const std::size_t pe_count = config_.num_pes;
  const std::size_t k0 = il0.size();
  const std::size_t k1 = il1.size();

  for (std::size_t first = 0; first < k0; first += pe_count) {
    const std::size_t loaded = std::min(pe_count, k0 - first);
    // Load phase: the PEs latch their IL0 windows. The kernels read those
    // windows in place through the ROM rows, so only the stream cost is
    // modeled.
    stats_.cycles_load += loaded * length + config_.skew_cycles();

    // Compute phase: every IL1 window streams past every loaded PE.
    std::size_t backlog = 0;
    for (std::size_t tile_first = 0; tile_first < k1; tile_first += kIl1Tile) {
      const std::size_t width = std::min(kIl1Tile, k1 - tile_first);
      score_tile(il0, first, loaded, il1.subspan(tile_first, width),
                 tile_first, out);

      std::size_t previous = 0;
      for (std::size_t j = 0; j < width; ++j) {
        // The L streaming cycles of window j drain up to L buffered
        // records; its completion tick then pushes its hits.
        backlog -= std::min(backlog, length);
        const std::size_t hits = counts_[j] - previous;
        previous = counts_[j];
        stats_.hits += hits;
        backlog += hits;
        if (backlog > capacity) {
          // Completion tick overflows the cascade: the master controller
          // pauses the stream one cycle per excess record while the
          // output port drains.
          stats_.cycles_stall += backlog - capacity;
          backlog = capacity;
        }
      }
    }
    stats_.comparisons += loaded * k1;
    stats_.cycles_compute += k1 * length + config_.skew_cycles();
    stats_.cycles_drain += backlog;

    stats_.pe_ticks_busy += loaded * k1;
    stats_.pe_ticks_total += pe_count * k1;
    ++stats_.rounds;
  }
}

void PscOperator::run_key_cycle_exact(index::WindowSpan il0,
                                      index::WindowSpan il1,
                                      std::vector<ResultRecord>& out) {
  const std::size_t length = config_.window_length;
  if (il0.window_length() != length || il1.window_length() != length) {
    throw std::invalid_argument(
        "PscOperator::run_key_cycle_exact: window length mismatch");
  }
  if (il0.empty() || il1.empty()) return;
  ++stats_.keys;

  const std::size_t pe_count = config_.num_pes;
  const std::size_t k0 = il0.size();
  const std::size_t k1 = il1.size();

  InputController ic0(il0);
  InputController ic1(il1);
  output_.clear();

  std::vector<std::vector<ResultRecord>> slot_scratch(slots_.size());

  for (std::size_t first = 0; first < k0; first += pe_count) {
    const std::size_t loaded = std::min(pe_count, k0 - first);
    reset_array();

    // LOAD: Input Controller 0 streams `loaded` windows, one residue per
    // cycle; the master controller steers each completed shift-register
    // fill to the next free PE, slot by slot.
    ic0.restrict(first, loaded);
    std::size_t fill_slot = 0;
    while (auto emission = ic0.next()) {
      while (!slots_[fill_slot].has_free_pe()) ++fill_slot;
      slots_[fill_slot].load_residue(emission->residue,
                                     emission->window_index);
      ++stats_.cycles_load;
    }
    stats_.cycles_load += config_.skew_cycles();

    // COMPUTE: Input Controller 1 broadcasts one residue per cycle to all
    // slots; the cascade forwards/drains every cycle; completion ticks
    // push into the slot FIFOs, stalling the stream while any push fails.
    ic1.restrict(0, k1);
    while (auto emission = ic1.next()) {
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        slots_[s].compute_cycle(emission->residue, emission->window_index,
                                slot_scratch[s]);
      }
      if (auto popped = cascade_.cycle()) output_.accept(*popped);
      ++stats_.cycles_compute;

      if (emission->window_complete) {
        stats_.comparisons += loaded;
        for (std::size_t s = 0; s < slots_.size(); ++s) {
          auto& pending = slot_scratch[s];
          stats_.hits += pending.size();
          std::size_t done = 0;
          while (done < pending.size()) {
            if (cascade_.slot(s).try_push(pending[done])) {
              ++done;
              continue;
            }
            // Slot FIFO full: stall the array one cycle while the cascade
            // keeps moving records toward the output port.
            if (auto popped = cascade_.cycle()) output_.accept(*popped);
            ++stats_.cycles_stall;
          }
          pending.clear();
        }
      }
    }
    stats_.cycles_compute += config_.skew_cycles();

    // DRAIN: flush the cascade.
    while (cascade_.backlog() > 0) {
      if (auto popped = cascade_.cycle()) output_.accept(*popped);
      ++stats_.cycles_drain;
    }

    stats_.pe_ticks_busy += loaded * k1;
    stats_.pe_ticks_total += pe_count * k1;
    ++stats_.rounds;
  }

  auto results = output_.take();
  out.insert(out.end(), results.begin(), results.end());
}

}  // namespace psc::rasc
