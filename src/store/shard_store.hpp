// Bank sharding: splitting one logical bank into fixed-size-bounded
// shards -- `<prefix>.shardNN.pscbank` / `.pscidx` pairs plus one small
// manifest (`<prefix>.pscman`) -- so a reference bank larger than memory
// can stay "resident" as a set of independently mmap'ed pieces that a
// query fans out across.
//
// The manifest is what makes the fan-out exact: it records each shard's
// sequence-id base (so per-shard subject ids remap to the unsharded
// numbering), the global sequence/residue totals (so E-values are
// computed against the whole bank's search space, not a shard's), and a
// whole-set checksum folded from the per-shard bank checksums (so a
// shard swapped for a different bank's file is rejected before any
// query).
//
// Manifest payload layout (after the common FileHeader):
//   u64 set_checksum
//   u64 revision            (v3+ only; a v2 manifest reads back as 0)
//   shard_count x { u64 sequence_base, u64 sequence_count,
//                   u64 residues,      u64 bank_checksum }
// Header meta: [0] sequence kind, [1] shard count, [2] total sequences,
// [3] total residues.
//
// v3 adds append-only ingest: append_sharded_store writes one new tail
// shard pair (its sequence_base continuing the unsharded numbering) and
// atomically replaces the manifest with a bumped `revision`, so a live
// service can adopt the new generation (see SearchService::
// refresh_manifest) while every already-resident shard stays valid --
// existing slots are never rewritten.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bio/sequence.hpp"
#include "index/seed_model.hpp"

namespace psc::store {

/// One shard's slot in the manifest.
struct ShardInfo {
  std::uint64_t sequence_base = 0;   ///< unsharded id of local sequence 0
  std::uint64_t sequence_count = 0;  ///< sequences stored in this shard
  std::uint64_t residues = 0;        ///< residues stored in this shard
  std::uint64_t bank_checksum = 0;   ///< the shard's .pscbank payload digest
};

struct ShardManifest {
  std::uint32_t version = 0;
  bio::SequenceKind kind = bio::SequenceKind::kProtein;
  std::uint64_t total_sequences = 0;
  std::uint64_t total_residues = 0;
  std::uint64_t set_checksum = 0;  ///< fold of the per-shard bank checksums
  /// Monotonic ingest generation: 1 for a fresh v3 build, +1 per
  /// append, 0 for a v2 manifest (which predates the lineage).
  std::uint64_t revision = 0;
  std::vector<ShardInfo> shards;
};

/// "<prefix>.shardNN" (two digits minimum, widening past 99).
std::string shard_prefix(const std::string& prefix, std::size_t shard);

/// "<prefix>.pscman".
std::string manifest_path(const std::string& prefix);

/// True when a manifest file exists under `prefix` -- how callers decide
/// between the sharded and plain load paths.
bool manifest_exists(const std::string& prefix);

/// Greedy split of `bank` into contiguous [begin, end) sequence ranges
/// whose *encoded* .pscbank payload (8 bytes of lengths + id + residues
/// per record) stays at or under `shard_max_bytes`. A single sequence
/// larger than the cap gets a shard of its own (a shard always holds at
/// least one sequence). `shard_max_bytes == 0` means unbounded: one
/// shard covering the whole bank.
std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const bio::SequenceBank& bank, std::uint64_t shard_max_bytes);

/// The whole-set checksum: fnv1a64 over the shards' bank checksums in
/// order. Recomputed on load and compared against the stored value.
std::uint64_t fold_set_checksum(const std::vector<ShardInfo>& shards);

/// Writes `manifest` to `path` under the common header discipline, via
/// a sibling temp file renamed into place (atomic replace: a reader
/// racing an append sees the old or the new revision, never a torn
/// file).
void save_manifest(const std::string& path, const ShardManifest& manifest);

/// Reads a manifest back, validating every invariant the fan-out relies
/// on: contiguous sequence bases starting at 0,
/// totals matching the header metadata, total sequences small enough
/// that every remapped subject id fits the Match u32, and the stored
/// set checksum matching the fold of the per-shard checksums. Throws a
/// typed StoreError on violation.
ShardManifest load_manifest(const std::string& path,
                            bool verify_checksum = true);

/// Splits `bank` per plan_shards, writes each shard's .pscbank/.pscidx
/// (the index built under `model`, with the shard's bank checksum
/// recorded) and the manifest, and returns the manifest. Shards are
/// written in parallel, at most `threads` at once (0 = hardware
/// concurrency), and each shard's index follows
/// IndexTable::build_parallel with the same `threads`; the files are
/// byte-identical to a one-thread build. `serial_index` forces the
/// serial index constructor (identical layout); `compress` stores the
/// shard pairs as v3 LZSS archives.
ShardManifest write_sharded_store(const std::string& prefix,
                                  const bio::SequenceBank& bank,
                                  const index::SeedModel& model,
                                  std::uint64_t shard_max_bytes,
                                  std::size_t threads = 0,
                                  bool serial_index = false,
                                  bool compress = false);

/// Append-only ingest: writes `delta` (possibly empty) as one new tail
/// shard pair under the existing store at `prefix`, then atomically
/// replaces the manifest with the extended shard table, bumped
/// `revision` and updated totals/set checksum. Existing shard files are
/// never touched, so a service holding the previous generation resident
/// keeps serving it until it refreshes. Throws StoreError:
/// kKindMismatch when `delta` holds the other sequence kind,
/// kModelMismatch when `model` disagrees with the store's recorded
/// model, kCorrupt when the extended totals would overflow the u32
/// subject-id space, plus anything load_manifest throws.
ShardManifest append_sharded_store(const std::string& prefix,
                                   const bio::SequenceBank& delta,
                                   const index::SeedModel& model,
                                   std::size_t threads = 0,
                                   bool serial_index = false,
                                   bool compress = false);

/// The revision recorded in the manifest at `path` (0 for v2 files),
/// with full load_manifest validation behind it.
std::uint64_t read_manifest_revision(const std::string& path);

}  // namespace psc::store
