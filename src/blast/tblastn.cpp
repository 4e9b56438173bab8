#include "blast/tblastn.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/xdrop.hpp"
#include "bio/translate.hpp"
#include "blast/neighborhood_words.hpp"
#include "blast/two_hit.hpp"

namespace psc::blast {

namespace {

/// Two HSPs are duplicates when their query and subject ranges both
/// overlap by more than half of the smaller range.
bool overlaps_mostly(const BlastHit& a, const BlastHit& b) {
  auto overlap = [](std::size_t b0, std::size_t e0, std::size_t b1,
                    std::size_t e1) {
    const std::size_t lo = std::max(b0, b1);
    const std::size_t hi = std::min(e0, e1);
    const std::size_t inter = hi > lo ? hi - lo : 0;
    const std::size_t smaller = std::min(e0 - b0, e1 - b1);
    return smaller > 0 && 2 * inter > smaller;
  };
  return overlap(a.alignment.begin0, a.alignment.end0, b.alignment.begin0,
                 b.alignment.end0) &&
         overlap(a.alignment.begin1, a.alignment.end1, b.alignment.begin1,
                 b.alignment.end1);
}

}  // namespace

TblastnResult tblastn_search(const bio::SequenceBank& queries,
                             const bio::SequenceBank& subjects,
                             const bio::SubstitutionMatrix& matrix,
                             const TblastnOptions& options,
                             const align::KarlinParams& stats) {
  TblastnResult result;
  if (queries.empty() || subjects.empty()) return result;

  // --- setup: neighbourhood lookup over the query set -------------------
  util::Timer setup_timer;
  const WordLookup lookup(queries, options.word_size, options.word_threshold,
                          matrix);
  std::vector<std::size_t> query_offset(queries.size() + 1, 0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    query_offset[q + 1] = query_offset[q] + queries[q].size();
  }
  DiagonalTracker tracker(query_offset.back(), subjects.max_length(),
                          options.two_hit_window);
  // Per-query statistics: composition-adjusted lambda when requested.
  std::vector<align::KarlinParams> query_stats(
      options.composition_based_stats ? queries.size() : 0);
  for (std::size_t q = 0; q < query_stats.size(); ++q) {
    query_stats[q] = align::composition_adjusted(
        {queries[q].data(), queries[q].size()}, matrix, stats);
  }
  result.profile.add("setup", setup_timer.seconds());

  const double total_subject_residues =
      static_cast<double>(subjects.total_residues());

  // --- scan: stream every subject through the lookup --------------------
  util::Timer scan_timer;
  std::vector<BlastHit> raw_hits;
  for (std::size_t s = 0; s < subjects.size(); ++s) {
    const bio::SequenceView subject = subjects[s];
    if (subject.size() < options.word_size) continue;
    tracker.new_subject();
    const std::uint8_t* data = subject.data();
    const std::size_t last = subject.size() - options.word_size;
    for (std::size_t pos = 0; pos <= last; ++pos) {
      ++result.counters.subject_words;
      const std::uint32_t key = lookup.key(data + pos);
      if (key == WordLookup::npos_key) continue;
      for (const QueryWordHit& qhit : lookup.hits(key)) {
        ++result.counters.word_hits;
        const std::size_t concat = query_offset[qhit.query] + qhit.position;
        if (tracker.covered(concat, pos)) continue;
        const bool trigger =
            options.two_hit
                ? tracker.register_hit(concat, pos, options.word_size)
                : true;
        if (!trigger) continue;
        ++result.counters.triggers;

        const bio::SequenceView query = queries[qhit.query];
        const align::UngappedExtension ungapped = align::xdrop_ungapped_extend(
            {query.data(), query.size()}, {data, subject.size()},
            qhit.position, pos, options.word_size, matrix,
            options.ungapped_x_drop);
        tracker.mark_extended(concat, pos, ungapped.end1);
        if (ungapped.score < options.gap_trigger) continue;
        ++result.counters.ungapped_passed;

        ++result.counters.gapped_runs;
        align::Alignment alignment = align::xdrop_gapped_extend(
            {query.data(), query.size()}, {data, subject.size()},
            qhit.position, pos, options.word_size, matrix, options.gap,
            options.with_traceback);
        const align::KarlinParams& hit_stats =
            options.composition_based_stats ? query_stats[qhit.query] : stats;
        const double e = align::e_value(
            alignment.score, static_cast<double>(query.size()),
            total_subject_residues, hit_stats);
        if (e > options.e_value_cutoff) continue;

        BlastHit hit;
        hit.query = qhit.query;
        hit.subject = static_cast<std::uint32_t>(s);
        hit.alignment = std::move(alignment);
        hit.bit_score = align::bit_score(hit.alignment.score, hit_stats);
        hit.e_value = e;
        raw_hits.push_back(std::move(hit));
      }
    }
  }
  result.profile.add("scan", scan_timer.seconds());

  // --- report: dedup overlapping HSPs, sort by E-value ------------------
  util::Timer report_timer;
  std::sort(raw_hits.begin(), raw_hits.end(),
            [](const BlastHit& a, const BlastHit& b) {
              if (a.query != b.query) return a.query < b.query;
              if (a.subject != b.subject) return a.subject < b.subject;
              return a.alignment.score > b.alignment.score;
            });
  for (std::size_t i = 0; i < raw_hits.size(); ++i) {
    bool duplicate = false;
    for (std::size_t k = result.hits.size(); k-- > 0;) {
      const BlastHit& kept = result.hits[k];
      if (kept.query != raw_hits[i].query ||
          kept.subject != raw_hits[i].subject) {
        break;  // sorted: earlier entries are other (query, subject) pairs
      }
      if (overlaps_mostly(kept, raw_hits[i])) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) result.hits.push_back(std::move(raw_hits[i]));
  }
  std::sort(result.hits.begin(), result.hits.end(),
            [](const BlastHit& a, const BlastHit& b) {
              return a.e_value < b.e_value;
            });
  result.profile.add("report", report_timer.seconds());
  return result;
}

TblastnResult tblastn_search_genome(const bio::SequenceBank& queries,
                                    const bio::Sequence& genome,
                                    const bio::SubstitutionMatrix& matrix,
                                    const TblastnOptions& options,
                                    const align::KarlinParams& stats) {
  const bio::SequenceBank subjects =
      bio::frames_to_bank(bio::translate_six_frames(genome));
  return tblastn_search(queries, subjects, matrix, options, stats);
}

}  // namespace psc::blast
