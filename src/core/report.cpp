#include "core/report.hpp"

#include <cmath>
#include <ostream>

namespace psc::core {

namespace {
struct OpSummary {
  std::size_t length = 0;     ///< alignment columns
  std::size_t mismatch = 0;
  std::size_t gap_opens = 0;
};

OpSummary summarize_ops(const Match& match, bio::SequenceView s0,
                        bio::SequenceView s1) {
  OpSummary out;
  if (match.alignment.ops.empty()) {
    out.length = std::max(match.alignment.end0 - match.alignment.begin0,
                          match.alignment.end1 - match.alignment.begin1);
    return out;
  }
  std::size_t i = match.alignment.begin0;
  std::size_t j = match.alignment.begin1;
  bool in_gap = false;
  for (const align::Op op : match.alignment.ops) {
    ++out.length;
    switch (op) {
      case align::Op::kMatch:
        if (s0[i] != s1[j]) ++out.mismatch;
        ++i;
        ++j;
        in_gap = false;
        break;
      case align::Op::kInsert0:
        if (!in_gap) ++out.gap_opens;
        in_gap = true;
        ++i;
        break;
      case align::Op::kInsert1:
        if (!in_gap) ++out.gap_opens;
        in_gap = true;
        ++j;
        break;
    }
  }
  return out;
}
}  // namespace

void write_tabular(std::ostream& out, const std::vector<Match>& matches,
                   const bio::SequenceBank& bank0,
                   const bio::SequenceBank& bank1) {
  for (const Match& match : matches) {
    const bio::SequenceView s0 = bank0[match.bank0_sequence];
    const bio::SequenceView s1 = bank1[match.bank1_sequence];
    const OpSummary ops = summarize_ops(match, s0, s1);
    const double pident =
        match.alignment.ops.empty()
            ? 0.0
            : 100.0 * match.alignment.identity({s0.data(), s0.size()},
                                               {s1.data(), s1.size()});
    out << s0.id() << '\t' << s1.id() << '\t';
    out.setf(std::ios::fixed);
    out.precision(2);
    out << pident << '\t' << ops.length << '\t' << ops.mismatch << '\t'
        << ops.gap_opens << '\t' << match.alignment.begin0 + 1 << '\t'
        << match.alignment.end0 << '\t' << match.alignment.begin1 + 1 << '\t'
        << match.alignment.end1 << '\t';
    out.precision(2);
    out.setf(std::ios::scientific, std::ios::floatfield);
    out << match.e_value << '\t';
    out.setf(std::ios::fixed, std::ios::floatfield);
    out.precision(1);
    out << match.bit_score << '\n';
  }
  out.unsetf(std::ios::floatfield);
}

std::pair<std::size_t, std::size_t> match_genome_range(
    const Match& match, const bio::FrameFragment& fragment) {
  if (fragment.frame > 0) {
    return {fragment.genome_begin + 3 * match.alignment.begin1,
            fragment.genome_begin + 3 * match.alignment.end1};
  }
  return {fragment.genome_end - 3 * match.alignment.end1,
          fragment.genome_end - 3 * match.alignment.begin1};
}

void write_gff3(std::ostream& out, const std::vector<Match>& matches,
                const bio::SequenceBank& bank0,
                const std::vector<bio::FrameFragment>& fragments,
                const std::string& genome_id) {
  out << "##gff-version 3\n";
  for (const Match& match : matches) {
    const bio::FrameFragment& fragment = fragments.at(match.bank1_sequence);
    const auto [begin, end] = match_genome_range(match, fragment);
    out << genome_id << "\tpsclib\tprotein_match\t" << begin + 1 << '\t'
        << end << '\t';
    out.setf(std::ios::fixed, std::ios::floatfield);
    out.precision(1);
    out << match.bit_score << '\t' << (fragment.frame > 0 ? '+' : '-') << '\t'
        << std::abs(fragment.frame) - 1 << "\tTarget="
        << bank0[match.bank0_sequence].id() << ' '
        << match.alignment.begin0 + 1 << ' ' << match.alignment.end0
        << ";EValue=";
    out.setf(std::ios::scientific, std::ios::floatfield);
    out.precision(2);
    out << match.e_value << '\n';
  }
  out.unsetf(std::ios::floatfield);
}

void write_step2_report(std::ostream& out, const PipelineResult& result) {
  const double seconds = result.step2_wall_seconds;
  const double mcells =
      seconds > 0.0
          ? static_cast<double>(result.counters.step2_cells) / seconds / 1e6
          : 0.0;
  const auto old_precision = out.precision();
  out << "step2 engine="
      << (result.step2_engine.empty() ? "none" : result.step2_engine)
      << " pairs=" << result.counters.step2_pairs
      << " hits=" << result.counters.step2_hits
      << " cells=" << result.counters.step2_cells;
  out.setf(std::ios::fixed, std::ios::floatfield);
  out.precision(4);
  out << " seconds=" << seconds;
  out.precision(1);
  out << " mcells_per_s=" << mcells;
  out.unsetf(std::ios::floatfield);
  out << " step3_engine="
      << (result.step3_engine.empty() ? "none" : result.step3_engine) << '\n';
  if (!result.fpga_reports.empty()) {
    const BoardStats board = board_stats(result.fpga_reports);
    out << "board swaps=" << board.board_swaps
        << " uploads=" << board.bank_uploads
        << " uploads_skipped=" << board.bank_uploads_skipped
        << " bitstream_loads=" << board.bitstream_loads;
    out.setf(std::ios::fixed, std::ios::floatfield);
    out.precision(6);
    out << " upload_seconds=" << board.upload_seconds
        << " upload_seconds_saved=" << board.upload_seconds_saved;
    out.unsetf(std::ios::floatfield);
    out << '\n';
  }
  out.setf(std::ios::fixed, std::ios::floatfield);
  out.unsetf(std::ios::floatfield);
  out.precision(old_precision);
}

}  // namespace psc::core
