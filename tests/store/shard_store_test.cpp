#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "util/rng.hpp"

namespace psc::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bio::SequenceBank make_bank(std::uint64_t seed, int count, int length) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < count; ++i) {
    bank.add(sim::generate_protein("s" + std::to_string(i), length, rng));
  }
  return bank;
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

/// Recomputes the payload checksum after tampering: the digest is an
/// integrity check, not an authenticity one, so every structural
/// rejection must hold even against a resealed file.
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

void remove_store(const std::string& prefix, std::size_t shards) {
  std::remove(manifest_path(prefix).c_str());
  for (std::size_t i = 0; i < shards; ++i) {
    std::remove((shard_prefix(prefix, i) + ".pscbank").c_str());
    std::remove((shard_prefix(prefix, i) + ".pscidx").c_str());
  }
}

TEST(ShardPlan, EmptyBankGetsOneEmptyShard) {
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const auto plan = plan_shards(empty, 64);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(ShardPlan, ZeroCapMeansOneWholeShard) {
  const bio::SequenceBank bank = make_bank(11, 7, 40);
  const auto plan = plan_shards(bank, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (std::pair<std::size_t, std::size_t>{0, bank.size()}));
}

TEST(ShardPlan, GreedySplitCoversBankContiguously) {
  const bio::SequenceBank bank = make_bank(12, 20, 50);
  // Roughly 60 encoded bytes per record; a 150-byte cap packs 2 each.
  const auto plan = plan_shards(bank, 150);
  ASSERT_GT(plan.size(), 1u);
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : plan) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);  // a shard always holds at least one sequence
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, bank.size());
}

TEST(ShardPlan, OversizedSequenceGetsItsOwnShard) {
  const bio::SequenceBank bank = make_bank(13, 5, 100);
  // Every record exceeds a 10-byte cap; the plan must still make
  // progress, one sequence per shard.
  const auto plan = plan_shards(bank, 10);
  ASSERT_EQ(plan.size(), bank.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i], (std::pair<std::size_t, std::size_t>{i, i + 1}));
  }
}

TEST(ShardStore, WriteReadRoundTrip) {
  const bio::SequenceBank bank = make_bank(20, 12, 60);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_roundtrip");
  const ShardManifest written =
      write_sharded_store(prefix, bank, model, 300);
  ASSERT_GT(written.shards.size(), 1u);
  ASSERT_TRUE(manifest_exists(prefix));

  const ShardManifest manifest = load_manifest(manifest_path(prefix));
  EXPECT_EQ(manifest.kind, bank.kind());
  EXPECT_EQ(manifest.total_sequences, bank.size());
  EXPECT_EQ(manifest.total_residues, bank.total_residues());
  EXPECT_EQ(manifest.set_checksum, written.set_checksum);
  ASSERT_EQ(manifest.shards.size(), written.shards.size());

  // Each shard file holds exactly its slice of the bank, and its index
  // both records and matches that shard's bank checksum.
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardInfo& shard = manifest.shards[i];
    const std::string pair_prefix = shard_prefix(prefix, i);
    const bio::SequenceBank piece = load_bank(pair_prefix + ".pscbank");
    ASSERT_EQ(piece.size(), shard.sequence_count);
    EXPECT_EQ(piece.total_residues(), shard.residues);
    for (std::size_t s = 0; s < piece.size(); ++s) {
      const bio::Sequence& original = bank[shard.sequence_base + s];
      EXPECT_EQ(piece[s].id(), original.id());
      EXPECT_EQ(piece[s].residues(), original.residues());
    }
    const BankFileInfo info = inspect_bank(pair_prefix + ".pscbank");
    EXPECT_EQ(info.payload_checksum, shard.bank_checksum);
    const LoadedIndex loaded =
        load_index(pair_prefix + ".pscidx", model, &piece,
                   /*verify_checksum=*/true, shard.bank_checksum);
    EXPECT_EQ(loaded.bank_checksum, shard.bank_checksum);
  }
  remove_store(prefix, manifest.shards.size());
}

TEST(ShardStore, ParallelBuildWritesTheSerialBuildsBytes) {
  // Shards are written as parallel executor tasks; every file and the
  // manifest must come out byte-for-byte as a one-thread build writes
  // them, compressed or not.
  const bio::SequenceBank bank = make_bank(23, 40, 90);
  const index::SeedModel model = index::SeedModel::subset_w4();
  for (const bool compress : {false, true}) {
    const std::string serial = temp_path("shard_threads1");
    const std::string parallel = temp_path("shard_threads4");
    const ShardManifest one =
        write_sharded_store(serial, bank, model, 400, 1, false, compress);
    const ShardManifest four =
        write_sharded_store(parallel, bank, model, 400, 4, false, compress);
    ASSERT_GE(one.shards.size(), 4u);
    ASSERT_EQ(one.shards.size(), four.shards.size());
    EXPECT_EQ(slurp(manifest_path(serial)), slurp(manifest_path(parallel)));
    for (std::size_t i = 0; i < one.shards.size(); ++i) {
      for (const char* extension : {".pscbank", ".pscidx"}) {
        const std::vector<char> expected =
            slurp(shard_prefix(serial, i) + extension);
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(expected, slurp(shard_prefix(parallel, i) + extension))
            << "shard " << i << extension << " compress=" << compress;
      }
    }
    remove_store(serial, one.shards.size());
    remove_store(parallel, four.shards.size());
  }
}

TEST(ShardStore, EmptyBankWritesOneEmptyShard) {
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_empty");
  const ShardManifest manifest = write_sharded_store(prefix, empty, model, 64);
  ASSERT_EQ(manifest.shards.size(), 1u);
  const ShardManifest reloaded = load_manifest(manifest_path(prefix));
  EXPECT_EQ(reloaded.total_sequences, 0u);
  EXPECT_EQ(reloaded.shards[0].sequence_count, 0u);
  EXPECT_EQ(load_bank(shard_prefix(prefix, 0) + ".pscbank").size(), 0u);
  remove_store(prefix, 1);
}

TEST(ShardStore, ManifestRejectsDamage) {
  const bio::SequenceBank bank = make_bank(21, 8, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_damage");
  const ShardManifest written =
      write_sharded_store(prefix, bank, model, 200);
  ASSERT_GE(written.shards.size(), 2u);
  const std::string path = manifest_path(prefix);
  const std::vector<char> good = slurp(path);
  constexpr std::size_t kMetaOffset = offsetof(FileHeader, meta);

  // Wrong magic (a bank file is not a manifest).
  std::vector<char> wrong_magic = good;
  wrong_magic[0] = 'X';
  spit(path, wrong_magic);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kBadMagic);

  // v1 predates the manifest type entirely; the future is also rejected.
  for (const char version : {char{1}, char{99}}) {
    std::vector<char> wrong_version = good;
    wrong_version[8] = version;
    spit(path, wrong_version);
    EXPECT_EQ(code_of([&] { load_manifest(path); }),
              StoreErrorCode::kBadVersion);
  }

  // Truncation.
  spit(path, {good.begin(), good.begin() + 10});
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);
  spit(path, {good.begin(), good.begin() + static_cast<long>(good.size() - 8)});
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  // Payload bit flip -> checksum.
  std::vector<char> flipped = good;
  flipped[good.size() - 1] ^= 0x10;
  spit(path, flipped);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kChecksum);

  // Zero shards, and a shard count sized to wrap the byte arithmetic:
  // both are header pokes a reseal cannot legitimize.
  std::vector<char> zero_shards = good;
  poke_u64(zero_shards, kMetaOffset + sizeof(std::uint64_t), 0);
  spit(path, zero_shards);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);
  std::vector<char> huge_shards = good;
  poke_u64(huge_shards, kMetaOffset + sizeof(std::uint64_t),
           std::uint64_t{1} << 61);
  spit(path, huge_shards);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  // Non-contiguous bases (shard 1's base bumped by one), resealed.
  // The v3 payload head is set_checksum + revision, 16 bytes.
  std::vector<char> gap = good;
  constexpr std::size_t kTableOffset =
      sizeof(FileHeader) + 2 * sizeof(std::uint64_t);
  std::uint64_t base1 = 0;
  std::memcpy(&base1, gap.data() + kTableOffset + 32, sizeof(base1));
  poke_u64(gap, kTableOffset + 32, base1 + 1);
  reseal(gap);
  spit(path, gap);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  // Totals no longer matching the shard table (header poke).
  std::vector<char> bad_total = good;
  poke_u64(bad_total, kMetaOffset + 2 * sizeof(std::uint64_t),
           bank.size() + 1);
  spit(path, bad_total);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  spit(path, good);
  remove_store(prefix, written.shards.size());
}

TEST(ShardStore, ManifestRejectsSwappedShardChecksum) {
  // A slot checksum that no longer folds into the recorded set checksum
  // is exactly what a shard swapped for another bank's file looks like
  // at the manifest level; resealing the payload digest must not save
  // it.
  const bio::SequenceBank bank = make_bank(22, 8, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_swap");
  const ShardManifest written =
      write_sharded_store(prefix, bank, model, 200);
  ASSERT_GE(written.shards.size(), 2u);
  const std::string path = manifest_path(prefix);
  std::vector<char> crafted = slurp(path);

  constexpr std::size_t kSlot0Checksum =
      sizeof(FileHeader) + 2 * sizeof(std::uint64_t) + 24;
  poke_u64(crafted, kSlot0Checksum, written.shards[0].bank_checksum ^ 1);
  reseal(crafted);
  spit(path, crafted);
  EXPECT_EQ(code_of([&] { load_manifest(path); }),
            StoreErrorCode::kBankMismatch);
  EXPECT_EQ(code_of([&] { load_manifest(path, false); }),
            StoreErrorCode::kBankMismatch);  // not gated on verify_checksum
  remove_store(prefix, written.shards.size());
}

TEST(ShardStore, ManifestRejectsIdSpaceOverflow) {
  // Totals past the u32 id space would let a remapped subject id wrap
  // Match::bank1_sequence; save an honest oversized manifest and make
  // sure the loader refuses it.
  ShardManifest manifest;
  manifest.kind = bio::SequenceKind::kProtein;
  ShardInfo a;
  a.sequence_base = 0;
  a.sequence_count = std::uint64_t{1} << 33;
  a.residues = 10;
  a.bank_checksum = 7;
  manifest.shards.push_back(a);
  manifest.total_sequences = a.sequence_count;
  manifest.total_residues = a.residues;
  const std::string path = temp_path("shard_idspace.pscman");
  save_manifest(path, manifest);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(ShardStore, AppendExtendsStoreAndBumpsRevision) {
  const bio::SequenceBank bank = make_bank(23, 10, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_append");
  const ShardManifest base = write_sharded_store(prefix, bank, model, 250);
  ASSERT_GE(base.shards.size(), 2u);
  EXPECT_EQ(base.revision, 1u);  // a fresh v3 build starts the lineage
  EXPECT_EQ(read_manifest_revision(manifest_path(prefix)), 1u);

  const bio::SequenceBank delta = make_bank(24, 4, 60);
  const ShardManifest extended =
      append_sharded_store(prefix, delta, model);
  EXPECT_EQ(extended.revision, 2u);
  ASSERT_EQ(extended.shards.size(), base.shards.size() + 1);
  EXPECT_EQ(extended.total_sequences, bank.size() + delta.size());
  EXPECT_EQ(extended.total_residues,
            bank.total_residues() + delta.total_residues());
  // Leading slots are untouched (append never rewrites a shard)...
  for (std::size_t i = 0; i < base.shards.size(); ++i) {
    EXPECT_EQ(extended.shards[i].sequence_base, base.shards[i].sequence_base);
    EXPECT_EQ(extended.shards[i].bank_checksum, base.shards[i].bank_checksum);
  }
  // ...and the tail continues the unsharded numbering exactly.
  const ShardInfo& tail = extended.shards.back();
  EXPECT_EQ(tail.sequence_base, bank.size());
  EXPECT_EQ(tail.sequence_count, delta.size());
  const std::string tail_prefix =
      shard_prefix(prefix, extended.shards.size() - 1);
  const bio::SequenceBank tail_bank = load_bank(tail_prefix + ".pscbank");
  ASSERT_EQ(tail_bank.size(), delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_EQ(tail_bank[i].id(), delta[i].id());
    EXPECT_EQ(tail_bank[i].residues(), delta[i].residues());
  }
  // The published manifest passes full validation (set checksum refold,
  // contiguity, totals) and records the new revision.
  const ShardManifest reloaded = load_manifest(manifest_path(prefix));
  EXPECT_EQ(reloaded.revision, 2u);
  EXPECT_EQ(reloaded.set_checksum, extended.set_checksum);
  EXPECT_EQ(read_manifest_revision(manifest_path(prefix)), 2u);

  // An EMPTY delta is a legal ingest tick: one empty tail shard, another
  // revision bump, totals unchanged.
  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const ShardManifest third = append_sharded_store(prefix, empty, model);
  EXPECT_EQ(third.revision, 3u);
  EXPECT_EQ(third.total_sequences, extended.total_sequences);
  EXPECT_EQ(third.shards.back().sequence_count, 0u);
  remove_store(prefix, third.shards.size());
}

TEST(ShardStore, AppendCompressedTailOntoPlainStore) {
  // Generations may mix storage modes: a plain store can grow a
  // compressed tail (cold ingest) and still validate as one set.
  const bio::SequenceBank bank = make_bank(25, 6, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_append_cmp");
  write_sharded_store(prefix, bank, model, 250);
  const bio::SequenceBank delta = make_bank(26, 3, 60);
  const ShardManifest extended = append_sharded_store(
      prefix, delta, model, /*threads=*/0, /*serial_index=*/false,
      /*compress=*/true);
  const std::string tail_prefix =
      shard_prefix(prefix, extended.shards.size() - 1);
  EXPECT_EQ(inspect_bank(tail_prefix + ".pscbank").compression,
            kCompressionLzss);
  EXPECT_EQ(inspect_index(tail_prefix + ".pscidx").compression,
            kCompressionLzss);
  EXPECT_EQ(load_bank(tail_prefix + ".pscbank").size(), delta.size());
  EXPECT_NO_THROW(load_manifest(manifest_path(prefix)));
  remove_store(prefix, extended.shards.size());
}

TEST(ShardStore, AppendRejectsKindAndModelMismatch) {
  const bio::SequenceBank bank = make_bank(27, 6, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_append_guard");
  const ShardManifest base = write_sharded_store(prefix, bank, model, 250);

  bio::SequenceBank dna(bio::SequenceKind::kDna);
  EXPECT_EQ(code_of([&] { append_sharded_store(prefix, dna, model); }),
            StoreErrorCode::kKindMismatch);

  const bio::SequenceBank delta = make_bank(28, 2, 40);
  EXPECT_EQ(code_of([&] {
              append_sharded_store(prefix, delta,
                                   index::SeedModel::blast_w3());
            }),
            StoreErrorCode::kModelMismatch);

  // Neither failed attempt may have published a new generation.
  EXPECT_EQ(read_manifest_revision(manifest_path(prefix)), base.revision);
  remove_store(prefix, base.shards.size());
}

/// Rewrites a v3 manifest as its v2 predecessor: drop the 8-byte
/// revision word, stamp version 2, fix the payload length and reseal.
/// What save_manifest wrote under v2 is byte-for-byte this.
std::vector<char> manifest_as_v2(const std::vector<char>& v3) {
  std::vector<char> v2(v3.begin(), v3.begin() + sizeof(FileHeader) + 8);
  v2.insert(v2.end(), v3.begin() + sizeof(FileHeader) + 16, v3.end());
  v2[8] = 2;  // FileHeader::version (little-endian u32)
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, v3.data() + offsetof(FileHeader, payload_bytes),
              sizeof(payload_bytes));
  poke_u64(v2, offsetof(FileHeader, payload_bytes), payload_bytes - 8);
  reseal(v2);
  return v2;
}

TEST(ShardStore, V2ManifestReadsBackAsRevisionZero) {
  const bio::SequenceBank bank = make_bank(29, 8, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_v2compat");
  const ShardManifest written = write_sharded_store(prefix, bank, model, 250);
  const std::string path = manifest_path(prefix);
  spit(path, manifest_as_v2(slurp(path)));

  const ShardManifest v2 = load_manifest(path);
  EXPECT_EQ(v2.version, 2u);
  EXPECT_EQ(v2.revision, 0u);  // predates the lineage: "unrecorded"
  EXPECT_EQ(v2.total_sequences, written.total_sequences);
  EXPECT_EQ(v2.set_checksum, written.set_checksum);
  ASSERT_EQ(v2.shards.size(), written.shards.size());
  EXPECT_EQ(v2.shards.back().bank_checksum,
            written.shards.back().bank_checksum);
  EXPECT_EQ(read_manifest_revision(path), 0u);

  // Appending to a v2 store adopts it into the lineage at revision 1.
  const bio::SequenceBank delta = make_bank(30, 2, 40);
  const ShardManifest adopted = append_sharded_store(prefix, delta, model);
  EXPECT_EQ(adopted.revision, 1u);
  remove_store(prefix, adopted.shards.size());
}

TEST(ShardStore, ManifestRejectsWrappedTotals) {
  // Satellite: crafted per-shard slots whose u64 sums wrap around to
  // match the header totals must be kCorrupt, not a silent pass -- the
  // loader checks each addition for overflow before comparing.
  const bio::SequenceBank bank = make_bank(31, 8, 50);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const std::string prefix = temp_path("shard_wrap");
  const ShardManifest written = write_sharded_store(prefix, bank, model, 200);
  ASSERT_GE(written.shards.size(), 2u);
  const std::string path = manifest_path(prefix);
  const std::vector<char> good = slurp(path);
  constexpr std::size_t kTable = sizeof(FileHeader) + 2 * sizeof(std::uint64_t);
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;

  // Residues: slot0 jumps to 2^63, slot1 to total - 2^63 (mod 2^64);
  // the wrapped sum equals the header total exactly.
  std::vector<char> wrap_residues = good;
  poke_u64(wrap_residues, kTable + 16, kHalf);
  poke_u64(wrap_residues, kTable + 32 + 16,
           written.total_residues - written.shards[0].residues -
               written.shards[1].residues + kHalf);
  reseal(wrap_residues);
  spit(path, wrap_residues);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  // Sequence counts: same trick, keeping the bases contiguous so the
  // overflow guard (not the contiguity check) is what must fire.
  std::vector<char> wrap_counts = good;
  poke_u64(wrap_counts, kTable + 8, kHalf);       // slot0.sequence_count
  poke_u64(wrap_counts, kTable + 32, kHalf);      // slot1.sequence_base
  poke_u64(wrap_counts, kTable + 32 + 8,
           written.total_sequences - written.shards[0].sequence_count -
               written.shards[1].sequence_count + kHalf);
  reseal(wrap_counts);
  spit(path, wrap_counts);
  EXPECT_EQ(code_of([&] { load_manifest(path); }), StoreErrorCode::kCorrupt);

  spit(path, good);
  remove_store(prefix, written.shards.size());
}

TEST(IndexStoreV2, RecordsBankChecksumAndRejectsWrongPairing) {
  const bio::SequenceBank bank = make_bank(30, 6, 60);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable table(bank, model);
  const std::string bank_path = temp_path("pairing.pscbank");
  const std::string index_path = temp_path("pairing.pscidx");
  const std::uint64_t checksum = save_bank(bank_path, bank);
  ASSERT_NE(checksum, 0u);
  EXPECT_EQ(inspect_bank(bank_path).payload_checksum, checksum);
  save_index(index_path, table, model, checksum);
  EXPECT_EQ(inspect_index(index_path).bank_checksum, checksum);

  // The matching bank loads; a different bank's checksum is rejected
  // before any payload section is validated.
  EXPECT_EQ(load_index(index_path, model, &bank, true, checksum)
                .bank_checksum,
            checksum);
  EXPECT_EQ(code_of([&] {
              load_index(index_path, model, &bank, true, checksum ^ 0x5a);
            }),
            StoreErrorCode::kBankMismatch);

  // 0 on either side means "unrecorded" and skips the check: old files
  // and callers stay loadable.
  EXPECT_NO_THROW(load_index(index_path, model, &bank, true, 0));
  const std::string legacy_path = temp_path("pairing_legacy.pscidx");
  save_index(legacy_path, table, model);  // no checksum recorded
  EXPECT_NO_THROW(load_index(legacy_path, model, &bank, true, checksum));

  std::remove(bank_path.c_str());
  std::remove(index_path.c_str());
  std::remove(legacy_path.c_str());
}

/// Rewrites a v2 index file as the v1 layout it extends: drop the 8-byte
/// bank-checksum section, stamp version 1, fix the payload length and
/// reseal. What save_index wrote under v1 is byte-for-byte this.
std::vector<char> as_v1(const std::vector<char>& v2) {
  std::vector<char> v1(v2.begin(), v2.begin() + sizeof(FileHeader));
  v1.insert(v1.end(), v2.begin() + sizeof(FileHeader) + 8, v2.end());
  v1[8] = 1;  // FileHeader::version (little-endian u32)
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, v2.data() + offsetof(FileHeader, payload_bytes),
              sizeof(payload_bytes));
  poke_u64(v1, offsetof(FileHeader, payload_bytes), payload_bytes - 8);
  reseal(v1);
  return v1;
}

TEST(IndexStoreV2, ReadsV1FilesAsUnrecorded) {
  const bio::SequenceBank bank = make_bank(31, 6, 60);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable fresh(bank, model);
  const std::string path = temp_path("backcompat.pscidx");
  save_index(path, fresh, model, save_bank(temp_path("backcompat.pscbank"),
                                           bank));
  const std::vector<char> v1 = as_v1(slurp(path));
  spit(path, v1);

  EXPECT_EQ(inspect_index(path).version, 1u);
  EXPECT_EQ(inspect_index(path).bank_checksum, 0u);
  // A v1 file records no pairing, so an expected checksum is waved
  // through -- and the table reads back identical to the fresh build.
  const LoadedIndex loaded = load_index(path, model, &bank, true, 0xdeadu);
  EXPECT_EQ(loaded.bank_checksum, 0u);
  ASSERT_EQ(loaded.table.total_occurrences(), fresh.total_occurrences());
  const auto fresh_occ = fresh.all_occurrences();
  const auto loaded_occ = loaded.table.all_occurrences();
  for (std::size_t i = 0; i < fresh_occ.size(); ++i) {
    ASSERT_EQ(loaded_occ[i], fresh_occ[i]);
  }

  // A v2 header over a payload too short to hold the checksum section
  // must be caught by the bounds check, not read past the mapping.
  std::vector<char> short_v2 = v1;
  short_v2[8] = 2;
  poke_u64(short_v2, offsetof(FileHeader, payload_bytes), 4);
  short_v2.resize(sizeof(FileHeader) + 4);
  reseal(short_v2);
  spit(path, short_v2);
  EXPECT_EQ(code_of([&] { load_index(path, model); }),
            StoreErrorCode::kCorrupt);

  std::remove(path.c_str());
  std::remove(temp_path("backcompat.pscbank").c_str());
}

}  // namespace
}  // namespace psc::store
