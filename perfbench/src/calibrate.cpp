#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace psc::perfbench {

namespace {

constexpr std::size_t kTableBytes = std::size_t{1} << 25;  ///< 32 MiB: past L2
constexpr std::size_t kScanBytes = std::size_t{1} << 16;   ///< 64 KiB: L2-resident
constexpr std::size_t kChunksPerThread = 128;
constexpr std::size_t kChunkSteps = std::size_t{1} << 15;

static_assert(kTableBytes == static_cast<std::size_t>(kCalibrationResidentMb) << 20);

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Fixed pseudo-random inputs of the kernel, made once per process.
struct KernelData {
  std::vector<std::uint8_t> table = std::vector<std::uint8_t>(kTableBytes);
  std::vector<std::uint8_t> scan = std::vector<std::uint8_t>(kScanBytes);
  std::array<std::int8_t, 32 * 32> scores{};

  KernelData() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint8_t& v : table) v = static_cast<std::uint8_t>(xorshift(x) & 31);
    for (std::uint8_t& v : scan) v = static_cast<std::uint8_t>(xorshift(x) & 31);
    for (std::int8_t& s : scores) s = static_cast<std::int8_t>(xorshift(x) % 15) - 9;
  }
};

/// One chunk of an ungapped-extension-like scan: a score over lookups
/// into the scoring table, one operand from the cache-resident scan
/// array and one gathered at random from the large table (the index
/// lookups' share of the pipeline), clamped at 0, summed as it goes.
std::uint64_t chunk(const KernelData& data, std::size_t c) {
  std::uint64_t x = (c + 1) * 0x2545f4914f6cdd1dULL;
  std::int32_t score = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kChunkSteps; ++i) {
    const std::uint8_t far = data.table[xorshift(x) & (kTableBytes - 1)];
    const std::uint8_t near = data.scan[(i * 2654435761u) & (kScanBytes - 1)];
    score = std::max(0, score + data.scores[far * 32u + near]);
    sum += static_cast<std::uint64_t>(score);
  }
  return sum;
}

}  // namespace

double calibration_seconds(std::size_t threads) {
  static const KernelData data;
  threads = std::max<std::size_t>(1, threads);
  const std::size_t chunks = kChunksPerThread * threads;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> sink{0};
  const auto worker = [&] {
    std::uint64_t local = 0;
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      local += chunk(data, c);
    }
    sink += local;
  };
  util::Timer timer;
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : pool) thread.join();
  const double seconds = timer.seconds();
  // The sum depends on every step, so the loops cannot be dropped.
  return sink.load() == 0 ? seconds + 1e-9 : seconds;
}

double NormalizedClock::stop() {
  raw_.push_back(timer_.seconds());
  calibrations_.push_back(calibration_seconds(threads_));
  const double around = 0.5 * (calibrations_[calibrations_.size() - 2] +
                               calibrations_.back());
  return raw_.back() * kReferenceSeconds / around;
}

}  // namespace psc::perfbench
