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

}  // namespace

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
    align::UngappedKernel kernel, Step2Schedule schedule,
    util::Executor* executor) {
  HostStep2Result out;
  out.kernel = align::resolve_ungapped_kernel(kernel, matrix, threshold);
  if (keys.empty()) return out;
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  if (workers <= 1) {
    Step2Scratch scratch(shape.length(), matrix, threshold, out.kernel);
    for (const index::SeedKey key : keys) {
      out.pairs += process_key(bank0, table0, bank1, table1, shape, key,
                               scratch, out.hits);
    }
    out.cells = out.pairs * shape.length();
    normalize_step2_hits(out.hits);
    return out;
  }

  const auto chunks =
      schedule == Step2Schedule::kCostAware
          ? cost_aware_key_chunks(table0, table1, keys,
                                  workers * kStep2ChunksPerWorker)
          : util::blocks(0, keys.size(), workers);
  util::Executor& exec = executor ? *executor : util::Executor::shared();
  util::Executor::TaskGroup group(exec, workers);
  std::vector<HostStep2Result> partial(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    group.run([&, c, kernel_used = out.kernel] {
      Step2Scratch scratch(shape.length(), matrix, threshold, kernel_used);
      partial[c].hits.reserve(kStep2PartialReserve);
      for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
        partial[c].pairs += process_key(bank0, table0, bank1, table1, shape,
                                        keys[i], scratch, partial[c].hits);
      }
    });
  }
  group.wait();
  std::size_t total_hits = 0;
  for (const auto& p : partial) total_hits += p.hits.size();
  out.hits.reserve(total_hits);
  for (auto& p : partial) {
    out.pairs += p.pairs;
    out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
  }
  out.cells = out.pairs * shape.length();
  normalize_step2_hits(out.hits);
  return out;
}

HostStep2Result run_step2_host_parallel(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::size_t threads, align::UngappedKernel kernel,
    Step2Schedule schedule, util::Executor* executor) {
  const align::UngappedKernel kernel_used =
      align::resolve_ungapped_kernel(kernel, matrix, threshold);
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  const auto chunks =
      schedule == Step2Schedule::kCostAware
          ? cost_aware_key_chunks(table0, table1,
                                  workers * kStep2ChunksPerWorker)
          : util::blocks(0, table0.key_space(), workers);

  util::Executor& exec = executor ? *executor : util::Executor::shared();
  util::Executor::TaskGroup group(exec, workers);
  std::vector<HostStep2Result> partial(chunks.size());
  std::atomic<std::uint64_t> total_pairs{0};
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    group.run([&, c] {
      Step2Scratch scratch(shape.length(), matrix, threshold, kernel_used);
      partial[c].hits.reserve(kStep2PartialReserve);
      partial[c].pairs = process_key_range(
          bank0, table0, bank1, table1, shape, chunks[c].first,
          chunks[c].second, scratch, partial[c].hits);
      total_pairs.fetch_add(partial[c].pairs, std::memory_order_relaxed);
    });
  }
  group.wait();

  HostStep2Result out;
  out.kernel = kernel_used;
  out.pairs = total_pairs.load();
  out.cells = out.pairs * shape.length();
  std::size_t total_hits = 0;
  for (const auto& p : partial) total_hits += p.hits.size();
  out.hits.reserve(total_hits);
  for (auto& p : partial) {
    out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
  }
  normalize_step2_hits(out.hits);
  return out;
}

struct Step2KeyScorer::Impl {
  const bio::SequenceBank& bank0;
  const index::IndexTable& table0;
  const bio::SequenceBank& bank1;
  const index::IndexTable& table1;
  index::WindowShape shape;
  Step2Scratch scratch;

  Impl(const bio::SequenceBank& b0, const index::IndexTable& t0,
       const bio::SequenceBank& b1, const index::IndexTable& t1,
       const bio::SubstitutionMatrix& m, const index::WindowShape& s,
       int threshold_in, align::UngappedKernel k)
      : bank0(b0),
        table0(t0),
        bank1(b1),
        table1(t1),
        shape(s),
        scratch(s.length(), m, threshold_in, k) {}
};

Step2KeyScorer::Step2KeyScorer(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, align::UngappedKernel kernel)
    : impl_(std::make_unique<Impl>(bank0, table0, bank1, table1, matrix,
                                   shape, threshold, kernel)) {}

Step2KeyScorer::~Step2KeyScorer() = default;

align::UngappedKernel Step2KeyScorer::kernel() const {
  return impl_->scratch.finder.kernel();
}

std::uint64_t Step2KeyScorer::score_range(
    std::size_t first_key, std::size_t last_key,
    std::vector<align::SeedPairHit>& hits) {
  return process_key_range(impl_->bank0, impl_->table0, impl_->bank1,
                           impl_->table1, impl_->shape, first_key, last_key,
                           impl_->scratch, hits);
}

}  // namespace psc::core
