// Everything a workload feeds the program, derived from the workload
// seed alone, plus the reference replies every reply is checked against.
//
// The reference is the scalar, sequential, unsharded pipeline:
// kHostSequential with the scalar step-2 and step-3 kernels against one
// index built by the serial constructor over the whole subject bank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "core/options.hpp"
#include "index/index_table.hpp"
#include "sim/workload.hpp"

namespace psc::perfbench {

using Bytes = std::vector<std::uint8_t>;

/// The scaled paper workload (sim::build_paper_workload) for `seed`:
/// genome length scales by `genome_scale`, protein banks by `bank_scale`.
sim::PaperWorkload make_paper_inputs(std::uint64_t seed, double genome_scale,
                                     double bank_scale);

/// FNV-1a over every sequence's id and residues, in bank order.
std::uint64_t bank_digest(const bio::SequenceBank& bank);

/// FNV-1a over a byte string.
std::uint64_t bytes_digest(const Bytes& bytes);

/// Sequences [begin, end) of `bank` as a bank of their own.
bio::SequenceBank slice_bank(const bio::SequenceBank& bank, std::size_t begin,
                             std::size_t end);

/// The first sequences of `bank` holding exactly `residues` residues in
/// all, the last one cut short. A job sized this way does the same
/// amount of work for every seed, whatever lengths the seed drew.
/// Throws std::invalid_argument when the bank is too small.
bio::SequenceBank take_residues(const bio::SequenceBank& bank, std::size_t residues);

/// A request stream over a pool of distinct one-sequence query banks:
/// request i asks pool[order[i]].
struct QueryStream {
  std::vector<bio::SequenceBank> pool;
  std::vector<std::size_t> order;
  std::size_t repeats = 0;  ///< requests that ask an earlier query again
};

/// `requests` queries of `window` residues cut at seeded offsets from
/// seeded proteins of `proteins`; with probability `repeat_share` a
/// request repeats a query already asked instead of drawing a new one.
QueryStream make_window_stream(const bio::SequenceBank& proteins,
                               std::size_t window, std::size_t requests,
                               double repeat_share, std::uint64_t seed);

/// Every protein of `proteins` once, in bank order.
QueryStream make_full_length_stream(const bio::SequenceBank& proteins);

/// FASTA text of a query bank, as the wire's Search frame carries it.
std::string to_fasta(const bio::SequenceBank& bank);

/// The reference configuration for `options`: the same seed model,
/// window, thresholds and statistics, run by the scalar sequential path.
core::PipelineOptions reference_options(core::PipelineOptions options);

/// encode_matches bytes of the reference run of each query in
/// `queries`, against `subject` indexed by `table`, on `threads` threads
/// (each query is its own sequential run).
std::vector<Bytes> reference_replies(const std::vector<bio::SequenceBank>& queries,
                                     const bio::SequenceBank& subject,
                                     const index::IndexTable& table,
                                     const core::PipelineOptions& options,
                                     std::size_t threads);

/// encode_matches bytes of the reference run of the whole `bank` against
/// `subject`. Computed as sequential runs over query slices on `threads`
/// threads, remapped to bank numbering and re-sorted with
/// core::match_order -- each (query, subject) pair's matches depend on
/// that pair alone, and the order is total, so this equals one run over
/// the whole bank.
Bytes reference_batch(const bio::SequenceBank& bank,
                      const bio::SequenceBank& subject,
                      const index::IndexTable& table,
                      const core::PipelineOptions& options,
                      std::size_t threads);

}  // namespace psc::perfbench
