#include "core/step2_host.hpp"

#include <algorithm>
#include <atomic>

#include "index/neighborhood.hpp"
#include "util/executor.hpp"

namespace psc::core {

namespace {

/// Initial capacity for each chunk's private hit vector: skips the
/// first few growth doublings on every chunk of every query without
/// committing meaningful memory (a hit is a few dozen bytes).
constexpr std::size_t kStep2PartialReserve = 256;

/// Cost-aware chunks per worker: fine enough that workers claiming
/// chunks dynamically smooth residual skew, coarse enough that the
/// per-chunk hit vectors stay few.
constexpr std::size_t kStep2ChunksPerWorker = 8;

/// Per-worker kernel state: window batches, the hit finder (which owns
/// the resolved kernel's rows, striped image and score buffer) and the
/// hit buffer. One instance is owned by each engine thread and threaded
/// through process_key, so kernel scratch ownership is explicit (no
/// function-local TLS) and the hot loop performs no allocation once the
/// buffers have grown to steady state.
struct Step2Scratch {
  index::WindowBatch batch0;
  index::WindowBatch batch1;
  align::UngappedHitFinder finder;
  std::vector<align::WindowScore> passed;

  Step2Scratch(std::size_t window_length,
               const bio::SubstitutionMatrix& matrix, int threshold,
               align::UngappedKernel kernel)
      : batch0(window_length),
        batch1(window_length),
        finder(kernel, matrix, threshold) {}
};

/// Processes one seed key with the scratch's kernel, appending hits.
std::uint64_t process_key(const bio::SequenceBank& bank0,
                          const index::IndexTable& table0,
                          const bio::SequenceBank& bank1,
                          const index::IndexTable& table1,
                          const index::WindowShape& shape, index::SeedKey key,
                          Step2Scratch& scratch,
                          std::vector<align::SeedPairHit>& hits) {
  const auto list0 = table0.occurrences(key);
  const auto list1 = table1.occurrences(key);
  if (list0.empty() || list1.empty()) return 0;

  index::extract_windows(bank0, list0, shape, scratch.batch0);
  index::extract_windows(bank1, list1, shape, scratch.batch1);

  // One IL0 window against the whole IL1 batch per kernel invocation --
  // the software mirror of a PE's duty in the array. Every kernel reports
  // exactly the pairs at or above the threshold with their exact scores,
  // so the hit set is independent of the choice.
  const index::WindowBatch& batch0 = scratch.batch0;
  const index::WindowBatch& batch1 = scratch.batch1;
  scratch.finder.assign(batch1);
  for (std::size_t i0 = 0; i0 < batch0.size(); ++i0) {
    scratch.finder.hits(batch0.window(i0), scratch.passed);
    for (const align::WindowScore& hit : scratch.passed) {
      hits.push_back(align::SeedPairHit{batch0.source(i0),
                                        batch1.source(hit.window), hit.score});
    }
  }
  return static_cast<std::uint64_t>(list0.size()) * list1.size();
}

/// Processes keys [first, last).
std::uint64_t process_key_range(const bio::SequenceBank& bank0,
                                const index::IndexTable& table0,
                                const bio::SequenceBank& bank1,
                                const index::IndexTable& table1,
                                const index::WindowShape& shape,
                                std::size_t first, std::size_t last,
                                Step2Scratch& scratch,
                                std::vector<align::SeedPairHit>& hits) {
  std::uint64_t pairs = 0;
  for (std::size_t k = first; k < last; ++k) {
    pairs += process_key(bank0, table0, bank1, table1, shape,
                         static_cast<index::SeedKey>(k), scratch, hits);
  }
  return pairs;
}

/// Normalizes hit order (sort by sequence pair, then offsets, then
/// score) so the parallel engines' output is independent of scheduling.
void normalize_step2_hits(std::vector<align::SeedPairHit>& hits) {
  std::sort(hits.begin(), hits.end(), [](const align::SeedPairHit& a,
                                         const align::SeedPairHit& b) {
    if (a.bank0.sequence != b.bank0.sequence) {
      return a.bank0.sequence < b.bank0.sequence;
    }
    if (a.bank1.sequence != b.bank1.sequence) {
      return a.bank1.sequence < b.bank1.sequence;
    }
    if (a.bank0.offset != b.bank0.offset) return a.bank0.offset < b.bank0.offset;
    if (a.bank1.offset != b.bank1.offset) return a.bank1.offset < b.bank1.offset;
    return a.score < b.score;
  });
}

/// Scores the keys of `chunks` (ranges over the indices that `key_at`
/// maps to seed keys) on up to `workers` executor tasks. Each task owns
/// one Step2Scratch and claims chunks until none is left, so kernel
/// state is built once per worker rather than once per chunk; each
/// chunk keeps its own hit vector, which bounds the over-allocation of
/// vector growth to a chunk's share of the hits. Hits come back
/// normalized.
template <typename KeyAt>
HostStep2Result score_chunks(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel,
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    std::size_t workers, util::Executor* executor, KeyAt key_at) {
  HostStep2Result out;
  out.kernel = align::resolve_ungapped_kernel(kernel, matrix, threshold);
  std::vector<std::vector<align::SeedPairHit>> partial(chunks.size());
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::uint64_t> total_pairs{0};
  util::Executor& exec = executor ? *executor : util::Executor::shared();
  util::Executor::TaskGroup group(exec, workers);
  for (std::size_t t = 0; t < std::min(workers, chunks.size()); ++t) {
    group.run([&] {
      Step2Scratch scratch(shape.length(), matrix, threshold, out.kernel);
      std::uint64_t pairs = 0;
      for (std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
           c < chunks.size();
           c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
        partial[c].reserve(kStep2PartialReserve);
        for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
          pairs += process_key(bank0, table0, bank1, table1, shape,
                               key_at(i), scratch, partial[c]);
        }
      }
      total_pairs.fetch_add(pairs, std::memory_order_relaxed);
    });
  }
  group.wait();

  out.pairs = total_pairs.load();
  out.cells = out.pairs * shape.length();
  std::size_t total_hits = 0;
  for (const auto& p : partial) total_hits += p.size();
  out.hits.reserve(total_hits);
  for (const auto& p : partial) {
    out.hits.insert(out.hits.end(), p.begin(), p.end());
  }
  normalize_step2_hits(out.hits);
  return out;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::size_t parts) {
  const std::size_t keys = table0.key_space();
  std::vector<std::uint64_t> cost(keys);
  for (std::size_t k = 0; k < keys; ++k) {
    const auto key = static_cast<index::SeedKey>(k);
    cost[k] = static_cast<std::uint64_t>(table0.list_length(key)) *
              table1.list_length(key);
  }
  return util::chunks_by_cost(cost, parts);
}

std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::span<const index::SeedKey> keys, std::size_t parts) {
  std::vector<std::uint64_t> cost(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cost[i] = static_cast<std::uint64_t>(table0.list_length(keys[i])) *
              table1.list_length(keys[i]);
  }
  return util::chunks_by_cost(cost, parts);
}

HostStep2Result run_step2_host(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel) {
  HostStep2Result out;
  Step2Scratch scratch(shape.length(), matrix, threshold, kernel);
  out.kernel = scratch.finder.kernel();
  out.pairs = process_key_range(bank0, table0, bank1, table1, shape, 0,
                                table0.key_space(), scratch, out.hits);
  out.cells = out.pairs * shape.length();
  return out;
}

HostStep2Result run_step2_host_keys(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::span<const index::SeedKey> keys, std::size_t threads,
    align::UngappedKernel kernel, util::Executor* executor) {
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  return score_chunks(bank0, table0, bank1, table1, matrix, shape, threshold,
                      kernel,
                      cost_aware_key_chunks(table0, table1, keys,
                                            workers * kStep2ChunksPerWorker),
                      workers, executor,
                      [keys](std::size_t i) { return keys[i]; });
}

HostStep2Result run_step2_host_parallel(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::size_t threads, align::UngappedKernel kernel,
    util::Executor* executor) {
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  return score_chunks(bank0, table0, bank1, table1, matrix, shape, threshold,
                      kernel,
                      cost_aware_key_chunks(table0, table1,
                                            workers * kStep2ChunksPerWorker),
                      workers, executor, [](std::size_t k) {
                        return static_cast<index::SeedKey>(k);
                      });
}

}  // namespace psc::core
