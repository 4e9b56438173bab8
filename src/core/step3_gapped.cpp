#include "core/step3_gapped.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "align/karlin.hpp"
#include "util/executor.hpp"

namespace psc::core {

namespace {

/// Total order over hits: sequence pair, then step-2 score (best
/// first), then seed offsets. The extension order within a
/// sequence-pair group decides which seeds coverage suppression skips,
/// and a total order makes the sorted sequence -- hence the step-3
/// result -- independent of the input permutation.
bool step3_hit_order(const align::SeedPairHit& a,
                     const align::SeedPairHit& b) {
  if (a.bank0.sequence != b.bank0.sequence) {
    return a.bank0.sequence < b.bank0.sequence;
  }
  if (a.bank1.sequence != b.bank1.sequence) {
    return a.bank1.sequence < b.bank1.sequence;
  }
  // Best step-2 score first, so the strongest seed of a region is
  // extended before its shadows arrive; offsets break score ties to
  // keep the order total.
  if (a.score != b.score) return a.score > b.score;
  if (a.bank0.offset != b.bank0.offset) return a.bank0.offset < b.bank0.offset;
  return a.bank1.offset < b.bank1.offset;
}

/// Hit sets below this size are ordered by one serial std::sort.
constexpr std::size_t kParallelOrderMinHits = std::size_t{1} << 14;

/// Sort buckets per worker: enough that a bucket holding a heavy query
/// sequence does not leave the other workers idle.
constexpr std::size_t kOrderBucketsPerWorker = 4;

/// Sorts `hits` with step3_hit_order, in parallel on `exec` when
/// `workers` > 1. Contiguous bank-0 sequence ranges of about equal hit
/// counts form the buckets (every hit's bank0.sequence must be below
/// `sequences`); one in-place pass moves each hit into its bucket, and
/// the buckets are sorted on their own. The buckets follow the order's
/// leading key and the order is total, so the result equals one
/// std::sort.
void order_hits(std::vector<align::SeedPairHit>& hits, std::size_t sequences,
                std::size_t workers, util::Executor& exec) {
  if (workers <= 1 || hits.size() < kParallelOrderMinHits) {
    std::sort(hits.begin(), hits.end(), step3_hit_order);
    return;
  }
  std::vector<std::size_t> counts(sequences, 0);
  for (const align::SeedPairHit& hit : hits) ++counts[hit.bank0.sequence];
  const std::size_t parts = workers * kOrderBucketsPerWorker;
  const std::size_t target = (hits.size() + parts - 1) / parts;
  // Bucket b holds slots [ends[b - 1], ends[b]) (ends[-1] = 0).
  std::vector<std::uint32_t> bucket_of(sequences);
  std::vector<std::size_t> ends;
  std::size_t filled = 0;
  std::size_t in_bucket = 0;
  for (std::size_t s = 0; s < sequences; ++s) {
    bucket_of[s] = static_cast<std::uint32_t>(ends.size());
    filled += counts[s];
    in_bucket += counts[s];
    if (in_bucket >= target) {
      ends.push_back(filled);
      in_bucket = 0;
    }
  }
  if (in_bucket > 0) ends.push_back(filled);
  // In-place bucket pass: each swap settles one hit in its bucket.
  std::vector<std::size_t> next(ends.size(), 0);
  for (std::size_t b = 1; b < ends.size(); ++b) next[b] = ends[b - 1];
  for (std::size_t b = 0; b < ends.size(); ++b) {
    while (next[b] < ends[b]) {
      align::SeedPairHit& hit = hits[next[b]];
      const std::uint32_t home = bucket_of[hit.bank0.sequence];
      if (home == b) {
        ++next[b];
      } else {
        std::swap(hit, hits[next[home]++]);
      }
    }
  }
  util::Executor::TaskGroup group(exec, workers);
  for (std::size_t b = 0; b < ends.size(); ++b) {
    group.run([&hits, &ends, b] {
      const std::size_t begin = b == 0 ? 0 : ends[b - 1];
      std::sort(hits.begin() + static_cast<std::ptrdiff_t>(begin),
                hits.begin() + static_cast<std::ptrdiff_t>(ends[b]),
                step3_hit_order);
    });
  }
  group.wait();
}

/// Half-open [begin, end) ranges of equal (bank0, bank1) sequence
/// pairs; `hits` must already be sorted with step3_hit_order.
std::vector<std::pair<std::size_t, std::size_t>> pair_group_ranges(
    std::span<const align::SeedPairHit> hits) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t begin = 0; begin < hits.size();) {
    std::size_t end = begin + 1;
    while (end < hits.size() &&
           hits[end].bank0.sequence == hits[begin].bank0.sequence &&
           hits[end].bank1.sequence == hits[begin].bank1.sequence) {
      ++end;
    }
    groups.emplace_back(begin, end);
    begin = end;
  }
  return groups;
}

/// Extends one sequence-pair group with coverage suppression: once an
/// accepted alignment covers a later seed, that seed is skipped. Appends
/// accepted matches to `out`; returns the extensions run. `scratch` is
/// the calling worker's X-drop DP buffers.
std::uint64_t extend_pair_group(
    const bio::SequenceBank& bank0, const bio::SequenceBank& bank1,
    std::span<const align::SeedPairHit> group,
    const align::GappedExtender& extender, const PipelineOptions& options,
    const align::KarlinParams& stats, double total_bank1_residues,
    align::XdropScratch& scratch, std::vector<Match>& out) {
  std::uint64_t extensions = 0;
  std::vector<Match> accepted;
  for (const align::SeedPairHit& hit : group) {
    const bool covered = std::any_of(
        accepted.begin(), accepted.end(), [&](const Match& m) {
          return hit.bank0.offset >= m.alignment.begin0 &&
                 hit.bank0.offset < m.alignment.end0 &&
                 hit.bank1.offset >= m.alignment.begin1 &&
                 hit.bank1.offset < m.alignment.end1;
        });
    if (covered) continue;

    ++extensions;
    const auto s0 = bank0.residues(hit.bank0.sequence);
    const auto s1 = bank1.residues(hit.bank1.sequence);
    align::Alignment alignment =
        extender.extend(s0, s1, hit.bank0.offset, hit.bank1.offset,
                        options.shape.seed_width, options.with_traceback,
                        scratch);

    const double e =
        align::e_value(alignment.score, static_cast<double>(s0.size()),
                       total_bank1_residues, stats);
    if (e > options.e_value_cutoff) continue;

    Match match;
    match.bank0_sequence = hit.bank0.sequence;
    match.bank1_sequence = hit.bank1.sequence;
    match.bit_score = align::bit_score(alignment.score, stats);
    match.e_value = e;
    match.alignment = std::move(alignment);
    accepted.push_back(std::move(match));
  }
  out.insert(out.end(), std::make_move_iterator(accepted.begin()),
             std::make_move_iterator(accepted.end()));
  return extensions;
}

/// Per-query Karlin statistics with thread-safe lazy computation of the
/// composition-adjusted parameters (plain options.stats when
/// composition_based_stats is off). References stay valid for the
/// cache's lifetime (node-based map).
class Step3StatsCache {
 public:
  Step3StatsCache(const bio::SequenceBank& bank0,
                  const bio::SubstitutionMatrix& matrix,
                  const PipelineOptions& options)
      : bank0_(bank0), matrix_(matrix), options_(options) {}

  const align::KarlinParams& for_query(std::uint32_t query) {
    if (!options_.composition_based_stats) return options_.stats;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = adjusted_.find(query);
    if (it != adjusted_.end()) return it->second;
    return adjusted_
        .emplace(query, align::composition_adjusted(bank0_.residues(query),
                                                    matrix_, options_.stats))
        .first->second;
  }

 private:
  const bio::SequenceBank& bank0_;
  const bio::SubstitutionMatrix& matrix_;
  const PipelineOptions& options_;
  std::mutex mutex_;
  std::unordered_map<std::uint32_t, align::KarlinParams> adjusted_;
};

}  // namespace

Step3Result run_step3(const bio::SequenceBank& bank0,
                      const bio::SequenceBank& bank1,
                      std::vector<align::SeedPairHit> hits,
                      const bio::SubstitutionMatrix& matrix,
                      const PipelineOptions& options) {
  Step3Result out;
  const align::GappedExtender extender(matrix, options.gap,
                                       options.step3_kernel);
  out.kernel = extender.kernel();
  if (hits.empty()) return out;

  const std::size_t workers =
      options.step3_threads == 0 ? util::default_thread_count()
                                 : options.step3_threads;
  util::Executor& exec =
      options.executor ? *options.executor : util::Executor::shared();
  order_hits(hits, bank0.size(), workers, exec);

  const double total_bank1_residues =
      options.search_space_residues > 0.0
          ? options.search_space_residues
          : static_cast<double>(bank1.total_residues());
  Step3StatsCache stats(bank0, matrix, options);
  const auto groups = pair_group_ranges(hits);

  const auto run_group = [&](const std::pair<std::size_t, std::size_t>& range,
                             align::XdropScratch& scratch,
                             std::vector<Match>& matches) {
    const auto [begin, end] = range;
    return extend_pair_group(
        bank0, bank1, {hits.data() + begin, end - begin}, extender, options,
        stats.for_query(hits[begin].bank0.sequence), total_bank1_residues,
        scratch, matches);
  };

  if (workers <= 1 || groups.size() <= 1) {
    align::XdropScratch scratch;
    for (const auto& range : groups) {
      out.extensions += run_group(range, scratch, out.matches);
    }
  } else {
    // Groups are independent (coverage suppression is per pair), so they
    // parallelize cleanly; finalize_matches restores a deterministic
    // order afterwards. Chunks finer than the worker cap let the
    // TaskGroup backlog soak up skewed groups.
    const auto chunks =
        util::blocks(0, groups.size(), workers * 4);
    util::Executor::TaskGroup task_group(exec, workers);
    std::vector<std::vector<Match>> partial(chunks.size());
    std::vector<std::uint64_t> extensions(chunks.size(), 0);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      task_group.run([&, c] {
        align::XdropScratch scratch;  // reused by every group of the chunk
        for (std::size_t g = chunks[c].first; g < chunks[c].second; ++g) {
          extensions[c] += run_group(groups[g], scratch, partial[c]);
        }
      });
    }
    task_group.wait();
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      out.extensions += extensions[c];
      out.matches.insert(out.matches.end(),
                         std::make_move_iterator(partial[c].begin()),
                         std::make_move_iterator(partial[c].end()));
    }
  }

  finalize_matches(out.matches);
  return out;
}

}  // namespace psc::core
