#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <vector>

#include "bio/translate.hpp"
#include "core/pipeline.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace psc::store {
namespace {

struct Workload {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::SequenceBank genome_bank{bio::SequenceKind::kProtein};

  explicit Workload(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = 20000;
    config.seed = seed;
    bio::Sequence genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    3000, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[2], divergence, rng),
                    9001, false, rng);
    genome_bank = bio::frames_to_bank(bio::translate_six_frames(genome));
  }
};

std::string temp_path(const std::string& name) {
  return psc::test::temp_dir() + "/" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void poke_u64(std::vector<char>& bytes, std::size_t offset,
              std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/// Recomputes the payload checksum after tampering, as an attacker
/// would: the FNV digest is an integrity check, not an authenticity one,
/// so it must never be what stands between a crafted file and UB.
void reseal(std::vector<char>& bytes) {
  const std::uint64_t digest = fnv1a64(bytes.data() + sizeof(FileHeader),
                                       bytes.size() - sizeof(FileHeader));
  poke_u64(bytes, offsetof(FileHeader, payload_checksum), digest);
}

StoreErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a StoreError";
  return StoreErrorCode::kIo;
}

TEST(BankStore, RoundTripPreservesEverySequence) {
  const Workload workload(1);
  const std::string path = temp_path("bank_roundtrip.pscbank");
  save_bank(path, workload.genome_bank);
  const bio::SequenceBank loaded = load_bank(path);
  ASSERT_EQ(loaded.size(), workload.genome_bank.size());
  EXPECT_EQ(loaded.kind(), workload.genome_bank.kind());
  EXPECT_EQ(loaded.total_residues(), workload.genome_bank.total_residues());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id(), workload.genome_bank[i].id());
    EXPECT_EQ(loaded[i].residues(), workload.genome_bank[i].residues());
  }
  std::remove(path.c_str());
}

TEST(BankStore, RoundTripDnaBank) {
  bio::SequenceBank bank(bio::SequenceKind::kDna);
  bank.add(bio::Sequence::dna_from_letters("chr", "ACGTNACGT"));
  const std::string path = temp_path("bank_dna.pscbank");
  save_bank(path, bank);
  const bio::SequenceBank loaded = load_bank(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.kind(), bio::SequenceKind::kDna);
  EXPECT_EQ(loaded[0].to_letters(), "ACGTNACGT");
  std::remove(path.c_str());
}

TEST(BankStore, RejectsDamage) {
  const Workload workload(2);
  const std::string path = temp_path("bank_damage.pscbank");
  save_bank(path, workload.proteins);
  const std::vector<char> good = slurp(path);

  // Header damage is store_file_test's, for every kind; these are the
  // bank's own cases. Truncation inside the payload.
  spit(path, {good.begin(), good.begin() + static_cast<long>(good.size() / 2)});
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);

  // Bit flip in the payload -> checksum.
  std::vector<char> flipped = good;
  flipped[sizeof(FileHeader) + 9] ^= 0x40;
  spit(path, flipped);
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kChecksum);

  // Missing file.
  EXPECT_EQ(code_of([&] { load_bank(temp_path("no_such.pscbank")); }),
            StoreErrorCode::kIo);
  std::remove(path.c_str());
}

TEST(BankStore, RejectsHeaderCountsBeyondThePayload) {
  // The loader sizes the bank's arena from the header's sequence and
  // residue counts, so counts the payload cannot hold must be refused
  // before anything is allocated from them.
  const Workload workload(2);
  const std::string path = temp_path("bank_counts.pscbank");
  save_bank(path, workload.proteins);
  const std::vector<char> good = slurp(path);
  constexpr std::size_t kMetaOffset = offsetof(FileHeader, meta);
  for (const std::size_t field : {1, 2}) {
    for (const std::uint64_t value :
         {std::uint64_t{1} << 61, std::uint64_t{good.size()}}) {
      std::vector<char> crafted = good;
      poke_u64(crafted, kMetaOffset + field * sizeof(std::uint64_t), value);
      spit(path, crafted);
      EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt)
          << "meta[" << field << "] = " << value;
    }
  }
  std::remove(path.c_str());
}

TEST(IndexStore, RoundTripIsZeroCopyAndBitIdentical) {
  const Workload workload(3);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable fresh(workload.genome_bank, model);
  const std::string path = temp_path("index_roundtrip.pscidx");
  save_index(path, fresh, model);

  // The unchecked load skips only the checksum pass; it must map the
  // same arrays.
  for (const bool verify_checksum : {true, false}) {
    SCOPED_TRACE(verify_checksum ? "checksum verified" : "checksum skipped");
    const LoadedIndex loaded =
        load_index(path, model, &workload.genome_bank, verify_checksum);
    EXPECT_TRUE(loaded.table.is_view());
    EXPECT_EQ(loaded.model_name, model.name());
    ASSERT_EQ(loaded.table.key_space(), fresh.key_space());
    ASSERT_EQ(loaded.table.total_occurrences(), fresh.total_occurrences());
    // Bit-identical arrays, not just equivalent contents.
    const auto fresh_starts = fresh.starts();
    const auto loaded_starts = loaded.table.starts();
    for (std::size_t k = 0; k < fresh_starts.size(); ++k) {
      ASSERT_EQ(loaded_starts[k], fresh_starts[k]);
    }
    const auto fresh_occ = fresh.all_occurrences();
    const auto loaded_occ = loaded.table.all_occurrences();
    for (std::size_t i = 0; i < fresh_occ.size(); ++i) {
      ASSERT_EQ(loaded_occ[i], fresh_occ[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(IndexStore, ParallelBuildSerializesByteIdentical) {
  // psc_index defaults to the parallel builder; the escape-hatch
  // guarantee is that serial and parallel builds produce the same file
  // down to the last byte, for any thread count.
  const Workload workload(9);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable serial(workload.genome_bank, model);
  const std::string serial_path = temp_path("index_serial.pscidx");
  save_index(serial_path, serial, model);
  const std::vector<char> serial_bytes = slurp(serial_path);
  ASSERT_FALSE(serial_bytes.empty());
  for (const std::size_t threads : {1u, 2u, 7u}) {
    const index::IndexTable parallel =
        index::IndexTable::build_parallel(workload.genome_bank, model,
                                          threads);
    const std::string path = temp_path("index_parallel.pscidx");
    save_index(path, parallel, model);
    EXPECT_EQ(slurp(path), serial_bytes) << "threads=" << threads;
    std::remove(path.c_str());
  }
  std::remove(serial_path.c_str());
}

TEST(IndexStore, InspectReportsHeader) {
  const Workload workload(4);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable table(workload.proteins, model);
  const std::string path = temp_path("index_inspect.pscidx");
  save_index(path, table, model);
  const IndexFileInfo info = inspect_index(path);
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.model_name, "subset-w4");
  EXPECT_EQ(info.model_fingerprint, model.fingerprint());
  EXPECT_EQ(info.key_space, model.key_space());
  EXPECT_EQ(info.occurrence_count, table.total_occurrences());
  std::remove(path.c_str());
}

TEST(IndexStore, PipelineHitsIdenticalAfterReload) {
  // The acceptance bar: a reloaded index must drive the pipeline to
  // bit-identical results vs a fresh in-memory build, under both the
  // scalar and SIMD step-2 kernels.
  const Workload workload(5);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable fresh(workload.genome_bank, model);
  const std::string path = temp_path("index_pipeline.pscidx");
  save_index(path, fresh, model);
  const LoadedIndex loaded =
      load_index(path, model, &workload.genome_bank);

  for (const align::UngappedKernel kernel :
       {align::UngappedKernel::kScalar, align::UngappedKernel::kAuto}) {
    core::PipelineOptions options;
    options.step2_kernel = kernel;
    options.with_traceback = true;
    const core::PipelineResult direct =
        core::run_pipeline(workload.proteins, workload.genome_bank, options);
    const core::PipelineResult reloaded = core::run_pipeline_with_index(
        workload.proteins, workload.genome_bank, loaded.table, options);

    EXPECT_EQ(direct.counters.step2_pairs, reloaded.counters.step2_pairs);
    EXPECT_EQ(direct.counters.step2_hits, reloaded.counters.step2_hits);
    EXPECT_EQ(direct.counters.step3_extensions,
              reloaded.counters.step3_extensions);
    ASSERT_EQ(direct.matches.size(), reloaded.matches.size());
    ASSERT_FALSE(direct.matches.empty());
    for (std::size_t i = 0; i < direct.matches.size(); ++i) {
      EXPECT_EQ(direct.matches[i].bank0_sequence,
                reloaded.matches[i].bank0_sequence);
      EXPECT_EQ(direct.matches[i].bank1_sequence,
                reloaded.matches[i].bank1_sequence);
      EXPECT_EQ(direct.matches[i].alignment.score,
                reloaded.matches[i].alignment.score);
      EXPECT_EQ(direct.matches[i].e_value, reloaded.matches[i].e_value);
    }
  }
  std::remove(path.c_str());
}

TEST(IndexStore, RejectsDamageAndMismatch) {
  const Workload workload(6);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable table(workload.proteins, model);
  const std::string path = temp_path("index_damage.pscidx");
  save_index(path, table, model);
  const std::vector<char> good = slurp(path);

  // Wrong seed model.
  const index::SeedModel other = index::SeedModel::subset_w4_coarse();
  EXPECT_EQ(code_of([&] { load_index(path, other); }),
            StoreErrorCode::kModelMismatch);

  // Truncation inside the payload (header damage: store_file_test).
  spit(path, {good.begin(), good.begin() + static_cast<long>(good.size() - 8)});
  EXPECT_EQ(code_of([&] { load_index(path, model); }),
            StoreErrorCode::kCorrupt);

  // Payload bit flip.
  std::vector<char> flipped = good;
  flipped[good.size() - 3] ^= 0x08;
  spit(path, flipped);
  EXPECT_EQ(code_of([&] { load_index(path, model); }),
            StoreErrorCode::kChecksum);

  // Index over a bigger bank paired with a smaller one: occurrences out
  // of range must be caught before step 2 can walk them.
  spit(path, good);
  bio::SequenceBank tiny(bio::SequenceKind::kProtein);
  tiny.add(workload.proteins[0]);
  EXPECT_EQ(code_of([&] { load_index(path, model, &tiny); }),
            StoreErrorCode::kCorrupt);

  EXPECT_EQ(code_of([&] { load_index(temp_path("no_such.pscidx"), model); }),
            StoreErrorCode::kIo);
  std::remove(path.c_str());
}

TEST(IndexStore, RejectsWrappingSectionCounts) {
  // Crafted headers whose section counts make the byte-size arithmetic
  // wrap must fail the geometry checks, not slip past them: with
  // meta[2] = 2^61, occ_bytes = meta[2] * sizeof(Occurrence) wraps to 0,
  // and a starts array ending at 2^61 would then hand step 2 a span
  // claiming 2^61 occurrences backed by no bytes at all.
  const index::SeedModel model = index::SeedModel::subset_w4();
  bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const index::IndexTable table(empty, model);
  const std::string path = temp_path("index_overflow.pscidx");
  save_index(path, table, model);
  const std::vector<char> good = slurp(path);
  constexpr std::size_t kMetaOffset = offsetof(FileHeader, meta);

  constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
  std::vector<char> crafted = good;
  poke_u64(crafted, kMetaOffset + 2 * sizeof(std::uint64_t), kHuge);
  // Make starts.back() (the file's final u64: the bank is empty, so the
  // occurrence section is absent) agree with the lying header, keeping
  // starts monotone and from_raw_spans otherwise satisfied.
  poke_u64(crafted, crafted.size() - sizeof(std::uint64_t), kHuge);
  reseal(crafted);
  spit(path, crafted);
  EXPECT_EQ(code_of([&] { load_index(path, model, &empty); }),
            StoreErrorCode::kCorrupt);

  // A name length within 64 of 2^64 wraps `header + name_bytes`-style
  // truncation checks; both readers must reject it with a typed error
  // instead of feeding it to string::assign.
  std::vector<char> huge_name = good;
  poke_u64(huge_name, kMetaOffset + 3 * sizeof(std::uint64_t),
           std::numeric_limits<std::uint64_t>::max() - 32);
  spit(path, huge_name);
  EXPECT_EQ(code_of([&] { inspect_index(path); }), StoreErrorCode::kCorrupt);
  EXPECT_EQ(code_of([&] { load_index(path, model, &empty); }),
            StoreErrorCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(IndexTableSpans, FromRawSpansValidatesLayout) {
  const std::vector<std::size_t> good_starts = {0, 1, 3};
  const std::vector<index::Occurrence> occ = {{0, 0}, {0, 4}, {1, 2}};
  const index::IndexTable view =
      index::IndexTable::from_raw_spans(good_starts, occ);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.key_space(), 2u);
  EXPECT_EQ(view.list_length(0), 1u);
  EXPECT_EQ(view.list_length(1), 2u);
  EXPECT_EQ(view.occurrences(1)[1], (index::Occurrence{1, 2}));

  const std::vector<std::size_t> not_zero = {1, 3};
  EXPECT_THROW(index::IndexTable::from_raw_spans(not_zero, occ),
               std::invalid_argument);
  const std::vector<std::size_t> not_monotone = {0, 2, 1};
  EXPECT_THROW(index::IndexTable::from_raw_spans(not_monotone, occ),
               std::invalid_argument);
  const std::vector<std::size_t> bad_total = {0, 1, 2};
  EXPECT_THROW(index::IndexTable::from_raw_spans(bad_total, occ),
               std::invalid_argument);
  EXPECT_THROW(index::IndexTable::from_raw_spans({}, occ),
               std::invalid_argument);
}

TEST(IndexTableSpans, CopiedAndMovedTablesKeepValidSpans) {
  const Workload workload(7);
  const index::SeedModel model = index::SeedModel::subset_w4();
  index::IndexTable original(workload.proteins, model);
  const std::size_t occurrences = original.total_occurrences();

  index::IndexTable copy = original;  // NOLINT(performance-unnecessary-copy)
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy.total_occurrences(), occurrences);

  index::IndexTable moved = std::move(original);
  EXPECT_EQ(moved.total_occurrences(), occurrences);
  EXPECT_EQ(moved.starts().size(), model.key_space() + 1);
  // The copy stays intact regardless of what happened to the source.
  EXPECT_EQ(copy.starts().back(), occurrences);
}

}  // namespace
}  // namespace psc::store
