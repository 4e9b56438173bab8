#include "store/shard_store.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "index/index_table.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/mmap_file.hpp"
#include "util/executor.hpp"

namespace psc::store {

namespace {

std::uint64_t kind_code(bio::SequenceKind kind) {
  return kind == bio::SequenceKind::kProtein ? 0 : 1;
}

/// The record's size inside a .pscbank payload (see bank_store.hpp).
std::uint64_t encoded_record_bytes(bio::SequenceView seq) {
  return 2 * sizeof(std::uint32_t) + seq.id().size() + seq.size();
}

}  // namespace

std::string shard_prefix(const std::string& prefix, std::size_t shard) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard%02zu", shard);
  return prefix + suffix;
}

std::string manifest_path(const std::string& prefix) {
  return prefix + ".pscman";
}

bool manifest_exists(const std::string& prefix) {
  return std::ifstream(manifest_path(prefix), std::ios::binary).good();
}

std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const bio::SequenceBank& bank, std::uint64_t shard_max_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> plan;
  if (bank.size() == 0) {
    // An empty bank still gets one (empty) shard so the manifest and
    // the shard files exist and the fan-out has something to load.
    plan.emplace_back(0, 0);
    return plan;
  }
  if (shard_max_bytes == 0) {
    plan.emplace_back(0, bank.size());
    return plan;
  }
  std::size_t begin = 0;
  std::uint64_t used = 0;
  for (std::size_t s = 0; s < bank.size(); ++s) {
    const std::uint64_t cost = encoded_record_bytes(bank[s]);
    if (s > begin && used + cost > shard_max_bytes) {
      plan.emplace_back(begin, s);
      begin = s;
      used = 0;
    }
    used += cost;
  }
  plan.emplace_back(begin, bank.size());
  return plan;
}

std::uint64_t fold_set_checksum(const std::vector<ShardInfo>& shards) {
  Fnv1a64 fold;
  for (const ShardInfo& shard : shards) {
    fold.update(&shard.bank_checksum, sizeof(shard.bank_checksum));
  }
  return fold.digest();
}

void save_manifest(const std::string& path, const ShardManifest& manifest) {
  // Written to a sibling temp file and renamed into place, so a live
  // service refreshing mid-append either sees the old revision or the
  // new one, never a torn manifest.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StoreError(StoreErrorCode::kIo,
                       "cannot create manifest file: " + tmp);
    }

    FileHeader header;
    header.magic = kManifestMagic;
    header.meta[0] = kind_code(manifest.kind);
    header.meta[1] = manifest.shards.size();
    header.meta[2] = manifest.total_sequences;
    header.meta[3] = manifest.total_residues;
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));

    Fnv1a64 checksum;
    std::uint64_t written = 0;
    const auto write = [&](const void* data, std::size_t size) {
      checksum.update(data, size);
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(size));
      written += size;
    };
    const std::uint64_t set_checksum = fold_set_checksum(manifest.shards);
    write(&set_checksum, sizeof(set_checksum));
    write(&manifest.revision, sizeof(manifest.revision));  // v3+
    for (const ShardInfo& shard : manifest.shards) {
      write(&shard.sequence_base, sizeof(shard.sequence_base));
      write(&shard.sequence_count, sizeof(shard.sequence_count));
      write(&shard.residues, sizeof(shard.residues));
      write(&shard.bank_checksum, sizeof(shard.bank_checksum));
    }

    header.payload_bytes = written;
    header.payload_checksum = checksum.digest();
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.flush();
    if (!out) {
      throw StoreError(StoreErrorCode::kIo,
                       "cannot write manifest file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreError(StoreErrorCode::kIo,
                     "cannot replace manifest file: " + path);
  }
}

ShardManifest load_manifest(const std::string& path, bool verify_checksum) {
  const MmapFile file = MmapFile::open(path);
  if (file.size() < sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest truncated before header: " + path);
  }
  FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != kManifestMagic) {
    throw StoreError(StoreErrorCode::kBadMagic,
                     "not a .pscman file: " + path);
  }
  // The manifest type was introduced with v2, so v1 is not a valid
  // manifest version.
  if (header.version < 2 || header.version > kFormatVersion) {
    throw StoreError(StoreErrorCode::kBadVersion,
                     "unsupported manifest format version " +
                         std::to_string(header.version) + ": " + path);
  }
  if (header.reserved != kCompressionNone) {
    // Manifests are never written compressed (they are a few hundred
    // bytes); a tag here is damage, not a feature.
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest compression tag out of range: " + path);
  }
  if (header.payload_bytes != file.size() - sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest payload length mismatch: " + path);
  }
  const std::uint8_t* payload = file.data() + sizeof(FileHeader);
  if (verify_checksum &&
      fnv1a64(payload, header.payload_bytes) != header.payload_checksum) {
    throw StoreError(StoreErrorCode::kChecksum,
                     "manifest payload checksum mismatch: " + path);
  }
  if (header.meta[0] > 1) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest kind field out of range: " + path);
  }

  // Shard count is file-controlled: bound it against the payload length
  // before deriving any byte size that could wrap. v3 inserts the u64
  // revision between the set checksum and the shard table.
  constexpr std::uint64_t kShardRecordBytes = 4 * sizeof(std::uint64_t);
  const std::uint64_t head_bytes =
      header.version >= 3 ? 2 * sizeof(std::uint64_t) : sizeof(std::uint64_t);
  const std::uint64_t shard_count = header.meta[1];
  if (shard_count == 0) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest declares zero shards: " + path);
  }
  if (header.payload_bytes < head_bytes ||
      shard_count > (header.payload_bytes - head_bytes) / kShardRecordBytes ||
      header.payload_bytes != head_bytes + shard_count * kShardRecordBytes) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest shard table disagrees with header: " + path);
  }

  ShardManifest manifest;
  manifest.version = header.version;
  manifest.kind = header.meta[0] == 0 ? bio::SequenceKind::kProtein
                                      : bio::SequenceKind::kDna;
  manifest.total_sequences = header.meta[2];
  manifest.total_residues = header.meta[3];
  std::memcpy(&manifest.set_checksum, payload, sizeof(std::uint64_t));
  if (header.version >= 3) {
    std::memcpy(&manifest.revision, payload + sizeof(std::uint64_t),
                sizeof(std::uint64_t));
  }

  const std::uint8_t* cursor = payload + head_bytes;
  manifest.shards.resize(static_cast<std::size_t>(shard_count));
  std::uint64_t next_base = 0;
  std::uint64_t residue_sum = 0;
  for (ShardInfo& shard : manifest.shards) {
    std::memcpy(&shard.sequence_base, cursor, sizeof(std::uint64_t));
    std::memcpy(&shard.sequence_count, cursor + 8, sizeof(std::uint64_t));
    std::memcpy(&shard.residues, cursor + 16, sizeof(std::uint64_t));
    std::memcpy(&shard.bank_checksum, cursor + 24, sizeof(std::uint64_t));
    cursor += kShardRecordBytes;
    // The fan-out's id remap is only exact when the bases tile the
    // unsharded numbering with no gap or overlap.
    if (shard.sequence_base != next_base) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "manifest shard bases are not contiguous: " + path);
    }
    if (shard.sequence_count >
        std::numeric_limits<std::uint64_t>::max() - next_base) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "manifest sequence counts overflow: " + path);
    }
    next_base += shard.sequence_count;
    if (shard.residues >
        std::numeric_limits<std::uint64_t>::max() - residue_sum) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "manifest residue counts overflow: " + path);
    }
    residue_sum += shard.residues;
  }
  if (next_base != manifest.total_sequences ||
      residue_sum != manifest.total_residues) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest totals disagree with its shards: " + path);
  }
  // Remapped subject ids must fit Match::bank1_sequence (u32).
  if (manifest.total_sequences >
      std::numeric_limits<std::uint32_t>::max()) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "manifest sequence total exceeds the id space: " + path);
  }
  if (manifest.set_checksum != fold_set_checksum(manifest.shards)) {
    throw StoreError(StoreErrorCode::kBankMismatch,
                     "manifest set checksum disagrees with its shards: " +
                         path);
  }
  return manifest;
}

ShardManifest write_sharded_store(const std::string& prefix,
                                  const bio::SequenceBank& bank,
                                  const index::SeedModel& model,
                                  std::uint64_t shard_max_bytes,
                                  std::size_t threads, bool serial_index,
                                  bool compress) {
  ShardManifest manifest;
  manifest.version = kFormatVersion;
  manifest.kind = bank.kind();
  manifest.total_sequences = bank.size();
  manifest.total_residues = bank.total_residues();
  manifest.revision = 1;  // fresh builds start the append lineage

  // One executor task per shard, at most `threads` at a time: each task
  // writes its own file pair and fills its own manifest slot, so the
  // files are byte-identical to a serial build whatever the order.
  const auto plan = plan_shards(bank, shard_max_bytes);
  manifest.shards.resize(plan.size());
  const std::size_t workers =
      threads == 0 ? util::default_thread_count() : threads;
  util::Executor::TaskGroup group(util::Executor::shared(), workers);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    group.run([&, i] {
      const auto [begin, end] = plan[i];
      bio::SequenceBank piece(bank.kind());
      for (std::size_t s = begin; s < end; ++s) piece.add(bank[s]);

      const std::string piece_prefix = shard_prefix(prefix, i);
      const std::uint64_t checksum =
          save_bank(piece_prefix + ".pscbank", piece, compress);
      const index::IndexTable table =
          serial_index
              ? index::IndexTable(piece, model)
              : index::IndexTable::build_parallel(piece, model, threads);
      save_index(piece_prefix + ".pscidx", table, model, checksum, compress);

      ShardInfo& shard = manifest.shards[i];
      shard.sequence_base = begin;
      shard.sequence_count = end - begin;
      shard.residues = piece.total_residues();
      shard.bank_checksum = checksum;
    });
  }
  group.wait();
  manifest.set_checksum = fold_set_checksum(manifest.shards);
  save_manifest(manifest_path(prefix), manifest);
  return manifest;
}

ShardManifest append_sharded_store(const std::string& prefix,
                                   const bio::SequenceBank& delta,
                                   const index::SeedModel& model,
                                   std::size_t threads, bool serial_index,
                                   bool compress) {
  ShardManifest manifest = load_manifest(manifest_path(prefix));
  if (delta.kind() != manifest.kind) {
    throw StoreError(StoreErrorCode::kKindMismatch,
                     "append delta holds the other sequence kind: " + prefix);
  }
  // The delta's index must be queryable alongside the resident shards:
  // reject a model that disagrees with what the store was built under
  // before writing anything.
  const IndexFileInfo first =
      inspect_index(shard_prefix(prefix, 0) + ".pscidx");
  if (first.model_fingerprint != model.fingerprint()) {
    throw StoreError(StoreErrorCode::kModelMismatch,
                     "append index model disagrees with the store's (" +
                         first.model_name + "): " + prefix);
  }
  if (delta.size() > std::numeric_limits<std::uint64_t>::max() -
                         manifest.total_sequences ||
      manifest.total_sequences + delta.size() >
          std::numeric_limits<std::uint32_t>::max()) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "append would overflow the sequence id space: " + prefix);
  }
  if (delta.total_residues() >
      std::numeric_limits<std::uint64_t>::max() - manifest.total_residues) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "append would overflow the residue total: " + prefix);
  }

  // Write the tail shard pair first, then atomically publish the bumped
  // manifest: a crash in between leaves the old revision fully valid
  // (the orphan pair is overwritten by the next append).
  const std::size_t tail = manifest.shards.size();
  const std::string tail_prefix = shard_prefix(prefix, tail);
  const std::uint64_t checksum =
      save_bank(tail_prefix + ".pscbank", delta, compress);
  const index::IndexTable table =
      serial_index ? index::IndexTable(delta, model)
                   : index::IndexTable::build_parallel(delta, model, threads);
  save_index(tail_prefix + ".pscidx", table, model, checksum, compress);

  ShardInfo shard;
  shard.sequence_base = manifest.total_sequences;
  shard.sequence_count = delta.size();
  shard.residues = delta.total_residues();
  shard.bank_checksum = checksum;
  manifest.shards.push_back(shard);
  manifest.total_sequences += delta.size();
  manifest.total_residues += delta.total_residues();
  manifest.version = kFormatVersion;
  manifest.revision += 1;  // a v2 manifest reads back as revision 0
  manifest.set_checksum = fold_set_checksum(manifest.shards);
  save_manifest(manifest_path(prefix), manifest);
  return manifest;
}

std::uint64_t read_manifest_revision(const std::string& path) {
  return load_manifest(path).revision;
}

}  // namespace psc::store
