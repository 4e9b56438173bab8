#include "core/step3_gapped.hpp"

#include <algorithm>

#include "util/executor.hpp"

namespace psc::core {

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

void sort_hits_for_step3(std::vector<align::SeedPairHit>& hits) {
  std::sort(hits.begin(), hits.end(), step3_hit_order);
}

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

align::Alignment extend_seed_hit(const bio::SequenceBank& bank0,
                                 const bio::SequenceBank& bank1,
                                 const align::SeedPairHit& hit,
                                 const bio::SubstitutionMatrix& matrix,
                                 const PipelineOptions& options) {
  const bio::Sequence& s0 = bank0[hit.bank0.sequence];
  const bio::Sequence& s1 = bank1[hit.bank1.sequence];
  return align::xdrop_gapped_extend(
      {s0.data(), s0.size()}, {s1.data(), s1.size()}, hit.bank0.offset,
      hit.bank1.offset, options.shape.seed_width, matrix, options.gap,
      options.with_traceback);
}

align::Alignment extend_seed_hit(const bio::SequenceBank& bank0,
                                 const bio::SequenceBank& bank1,
                                 const align::SeedPairHit& hit,
                                 const align::GappedExtender& extender,
                                 const PipelineOptions& options) {
  const bio::Sequence& s0 = bank0[hit.bank0.sequence];
  const bio::Sequence& s1 = bank1[hit.bank1.sequence];
  return extender.extend({s0.data(), s0.size()}, {s1.data(), s1.size()},
                         hit.bank0.offset, hit.bank1.offset,
                         options.shape.seed_width, options.with_traceback);
}

std::uint64_t extend_pair_group(
    const bio::SequenceBank& bank0, std::span<const align::SeedPairHit> group,
    const std::function<align::Alignment(std::size_t)>& aligner,
    const PipelineOptions& options, const align::KarlinParams& stats,
    double total_bank1_residues, std::vector<Match>& out) {
  std::uint64_t extensions = 0;
  std::vector<Match> accepted;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const align::SeedPairHit& hit = group[i];
    const bool covered = std::any_of(
        accepted.begin(), accepted.end(), [&](const Match& m) {
          return hit.bank0.offset >= m.alignment.begin0 &&
                 hit.bank0.offset < m.alignment.end0 &&
                 hit.bank1.offset >= m.alignment.begin1 &&
                 hit.bank1.offset < m.alignment.end1;
        });
    if (covered) continue;

    ++extensions;
    align::Alignment alignment = aligner(i);

    const bio::Sequence& s0 = bank0[hit.bank0.sequence];
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

const align::KarlinParams& Step3StatsCache::for_query(std::uint32_t query) {
  if (!options_.composition_based_stats) return options_.stats;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = adjusted_.find(query);
  if (it != adjusted_.end()) return it->second;
  const bio::Sequence& s0 = bank0_[query];
  return adjusted_
      .emplace(query, align::composition_adjusted({s0.data(), s0.size()},
                                                  matrix_, options_.stats))
      .first->second;
}

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

  sort_hits_for_step3(hits);

  const double total_bank1_residues =
      options.search_space_residues > 0.0
          ? options.search_space_residues
          : static_cast<double>(bank1.total_residues());
  Step3StatsCache stats(bank0, matrix, options);
  const auto groups = pair_group_ranges(hits);

  const auto run_group = [&](const std::pair<std::size_t, std::size_t>& range,
                             std::vector<Match>& matches) {
    const auto [begin, end] = range;
    const std::span<const align::SeedPairHit> group{hits.data() + begin,
                                                    end - begin};
    return extend_pair_group(
        bank0, group,
        [&](std::size_t i) {
          return extend_seed_hit(bank0, bank1, group[i], extender, options);
        },
        options, stats.for_query(hits[begin].bank0.sequence),
        total_bank1_residues, matches);
  };

  const std::size_t workers =
      options.step3_threads == 0 ? util::default_thread_count()
                                 : options.step3_threads;
  if (workers <= 1 || groups.size() <= 1) {
    for (const auto& range : groups) {
      out.extensions += run_group(range, out.matches);
    }
  } else {
    // Groups are independent (coverage suppression is per pair), so they
    // parallelize cleanly; finalize_matches restores a deterministic
    // order afterwards. Chunks finer than the worker cap let the
    // TaskGroup backlog soak up skewed groups.
    const auto chunks =
        util::blocks(0, groups.size(), workers * 4);
    util::Executor& exec =
        options.executor ? *options.executor : util::Executor::shared();
    util::Executor::TaskGroup task_group(exec, workers);
    std::vector<std::vector<Match>> partial(chunks.size());
    std::vector<std::uint64_t> extensions(chunks.size(), 0);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      task_group.run([&, c] {
        for (std::size_t g = chunks[c].first; g < chunks[c].second; ++g) {
          extensions[c] += run_group(groups[g], partial[c]);
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
