#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hpp"
#include "core/result_codec.hpp"
#include "util/rng.hpp"

namespace psc::perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
}

/// Runs `job(i)` for every i in [0, count) on up to `threads` threads.
template <typename Job>
void parallel_for(std::size_t count, std::size_t threads, const Job& job) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      job(i);
    }
  };
  std::vector<std::thread> pool;
  const std::size_t extra = std::min(threads, count) > 0
                                ? std::min(threads, count) - 1
                                : 0;
  for (std::size_t t = 0; t < extra; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
}

}  // namespace

sim::PaperWorkload make_paper_inputs(std::uint64_t seed, double genome_scale,
                                     double bank_scale) {
  sim::ScaledWorkloadConfig config;
  config.scale = genome_scale;
  config.bank_scale = bank_scale;
  config.seed = seed;
  return sim::build_paper_workload(config);
}

std::uint64_t bank_digest(const bio::SequenceBank& bank) {
  std::uint64_t hash = kFnvOffset;
  for (const bio::Sequence& sequence : bank) {
    const std::string& id = sequence.id();
    fnv_mix(hash, reinterpret_cast<const std::uint8_t*>(id.data()), id.size());
    const std::uint8_t separator = 0xff;
    fnv_mix(hash, &separator, 1);
    fnv_mix(hash, sequence.data(), sequence.size());
  }
  return hash;
}

std::uint64_t bytes_digest(const Bytes& bytes) {
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, bytes.data(), bytes.size());
  return hash;
}

bio::SequenceBank slice_bank(const bio::SequenceBank& bank, std::size_t begin,
                             std::size_t end) {
  bio::SequenceBank out(bank.kind());
  for (std::size_t i = begin; i < end && i < bank.size(); ++i) out.add(bank[i]);
  return out;
}

bio::SequenceBank take_residues(const bio::SequenceBank& bank, std::size_t residues) {
  if (bank.total_residues() < residues) {
    throw std::invalid_argument("take_residues: the bank holds " +
                                std::to_string(bank.total_residues()) +
                                " residues, fewer than " + std::to_string(residues));
  }
  bio::SequenceBank out(bank.kind());
  for (std::size_t i = 0; out.total_residues() < residues; ++i) {
    const std::size_t room = residues - out.total_residues();
    out.add(bank[i].size() <= room ? bank[i] : bank[i].subsequence(0, room));
  }
  return out;
}

QueryStream make_window_stream(const bio::SequenceBank& proteins,
                               std::size_t window, std::size_t requests,
                               double repeat_share, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0x51ed2701a3c4b5d9ULL);
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < proteins.size(); ++i) {
    if (proteins[i].size() >= window) eligible.push_back(i);
  }
  QueryStream stream;
  if (eligible.empty()) return stream;
  stream.order.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    if (!stream.pool.empty() && rng.chance(repeat_share)) {
      stream.order.push_back(stream.order[rng.bounded(stream.order.size())]);
      ++stream.repeats;
      continue;
    }
    const bio::Sequence& source = proteins[eligible[rng.bounded(eligible.size())]];
    const std::size_t offset = rng.bounded(source.size() - window + 1);
    bio::Sequence cut = source.subsequence(offset, window);
    bio::SequenceBank query(bio::SequenceKind::kProtein);
    query.add(bio::Sequence("q" + std::to_string(stream.pool.size()),
                            bio::SequenceKind::kProtein,
                            std::vector<std::uint8_t>(cut.residues())));
    stream.order.push_back(stream.pool.size());
    stream.pool.push_back(std::move(query));
  }
  return stream;
}

QueryStream make_full_length_stream(const bio::SequenceBank& proteins) {
  QueryStream stream;
  for (std::size_t i = 0; i < proteins.size(); ++i) {
    stream.pool.push_back(slice_bank(proteins, i, i + 1));
    stream.order.push_back(i);
  }
  return stream;
}

std::string to_fasta(const bio::SequenceBank& bank) {
  std::ostringstream out;
  for (const bio::Sequence& sequence : bank) {
    out << ">" << sequence.id() << "\n" << sequence.to_letters() << "\n";
  }
  return out.str();
}

core::PipelineOptions reference_options(core::PipelineOptions options) {
  options.backend = core::Step2Backend::kHostSequential;
  options.host_threads = 1;
  options.step3_threads = 1;
  options.overlap_steps23 = false;
  options.step2_kernel = align::UngappedKernel::kScalar;
  options.step3_kernel = align::GappedKernel::kScalar;
  options.executor = nullptr;
  options.rasc.board = nullptr;
  return options;
}

std::vector<Bytes> reference_replies(const std::vector<bio::SequenceBank>& queries,
                                     const bio::SequenceBank& subject,
                                     const index::IndexTable& table,
                                     const core::PipelineOptions& options,
                                     std::size_t threads) {
  const core::PipelineOptions reference = reference_options(options);
  std::vector<Bytes> replies(queries.size());
  parallel_for(queries.size(), threads, [&](std::size_t i) {
    const core::PipelineResult result =
        core::run_pipeline_with_index(queries[i], subject, table, reference);
    replies[i] = core::encode_matches(result.matches);
  });
  return replies;
}

Bytes reference_batch(const bio::SequenceBank& bank,
                      const bio::SequenceBank& subject,
                      const index::IndexTable& table,
                      const core::PipelineOptions& options,
                      std::size_t threads) {
  const core::PipelineOptions reference = reference_options(options);
  // Small slices balance the threads; each is one sequential run.
  constexpr std::size_t kSlice = 8;
  const std::size_t slices = (bank.size() + kSlice - 1) / kSlice;
  std::vector<std::vector<core::Match>> parts(slices);
  parallel_for(slices, threads, [&](std::size_t s) {
    const std::size_t begin = s * kSlice;
    const bio::SequenceBank slice = slice_bank(bank, begin, begin + kSlice);
    core::PipelineResult result =
        core::run_pipeline_with_index(slice, subject, table, reference);
    for (core::Match& match : result.matches) {
      match.bank0_sequence += static_cast<std::uint32_t>(begin);
    }
    parts[s] = std::move(result.matches);
  });
  std::vector<core::Match> merged;
  for (auto& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), core::match_order);
  return core::encode_matches(merged);
}

}  // namespace psc::perfbench
