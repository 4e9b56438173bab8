#include "service/shard_query.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "store/bank_store.hpp"

namespace psc::service {

namespace {

/// Loads one (bank, index) pair, mapping each file once and pinning
/// the pairing through the bank's recorded payload checksum: the loaded
/// index must either record that checksum or record none (v1 files).
/// A manifest shard passes `pinned`, the bank checksum its slot records:
/// the bank's header is compared with it before its payload is verified
/// and decoded from the same mapping.
std::shared_ptr<const LoadedShard> load_pair(
    const std::string& pair_prefix, const index::SeedModel& model,
    bool verify_checksums, std::uint64_t sequence_base,
    std::optional<std::uint64_t> pinned) {
  const std::string bank_path = pair_prefix + ".pscbank";
  store::MmapFile bank_file = store::MmapFile::open(bank_path);
  const store::FileHeader bank_header =
      store::read_header(bank_file.bytes(), store::FileKind::kBank, bank_path);
  // The shard file must be the very bank the manifest was built over,
  // not merely *a* self-consistent bank/index pair: a shard swapped for
  // another bank's files would silently change the result set.
  if (pinned && bank_header.payload_checksum != *pinned) {
    throw store::StoreError(
        store::StoreErrorCode::kBankMismatch,
        "shard bank is not the one the manifest records: " + bank_path);
  }
  bio::SequenceBank bank = store::decode_bank(
      store::read_payload(std::move(bank_file), bank_header,
                          store::FileKind::kBank, bank_path, verify_checksums));
  store::StoreImage index_image = store::read_store_file(
      pair_prefix + ".pscidx", store::FileKind::kIndex, verify_checksums);
  const bool compressed =
      bank_header.reserved != store::kCompressionNone ||
      index_image.header.reserved != store::kCompressionNone;
  store::LoadedIndex index =
      store::decode_index(std::move(index_image), model, &bank,
                          bank_header.payload_checksum);
  return std::make_shared<const LoadedShard>(
      LoadedShard{std::move(bank), std::move(index), sequence_base,
                  bank_header.payload_checksum, compressed});
}

}  // namespace

LoadedBankSet load_bank_set(const std::string& prefix,
                            const index::SeedModel& model,
                            bool verify_checksums,
                            const LoadedBankSet* previous) {
  LoadedBankSet set;
  if (!store::manifest_exists(prefix)) {
    set.shards.push_back(
        load_pair(prefix, model, verify_checksums, 0, std::nullopt));
    set.total_sequences = set.shards.front()->bank.size();
    set.total_residues = set.shards.front()->bank.total_residues();
    return set;
  }

  const store::ShardManifest manifest =
      store::load_manifest(store::manifest_path(prefix), verify_checksums);
  set.sharded = true;
  set.total_sequences = manifest.total_sequences;
  set.total_residues = manifest.total_residues;
  set.revision = manifest.revision;
  set.shards.reserve(manifest.shards.size());
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const store::ShardInfo& slot = manifest.shards[i];
    // Cross-generation reuse: an append never rewrites an existing
    // shard, so a slot whose identity (base + bank checksum) matches
    // the already-resident generation adopts that shard outright -- no
    // file I/O, and the two generations share the bytes until the old
    // one is evicted.
    if (previous != nullptr && i < previous->shards.size()) {
      const std::shared_ptr<const LoadedShard>& prior = previous->shards[i];
      if (prior->sequence_base == slot.sequence_base &&
          prior->bank_image_id == slot.bank_checksum &&
          prior->bank.size() == slot.sequence_count) {
        set.shards.push_back(prior);
        ++set.reused_shards;
        continue;
      }
    }
    const std::string pair_prefix = store::shard_prefix(prefix, i);
    std::shared_ptr<const LoadedShard> shard =
        load_pair(pair_prefix, model, verify_checksums, slot.sequence_base,
                  slot.bank_checksum);
    if (shard->bank.kind() != manifest.kind ||
        shard->bank.size() != slot.sequence_count ||
        shard->bank.total_residues() != slot.residues) {
      throw store::StoreError(
          store::StoreErrorCode::kCorrupt,
          "shard bank contents disagree with the manifest: " + pair_prefix +
              ".pscbank");
    }
    set.shards.push_back(std::move(shard));
  }
  return set;
}

core::PipelineResult run_query_over_set(
    const bio::SequenceBank& query, const LoadedBankSet& set,
    const core::PipelineOptions& options,
    const bio::SubstitutionMatrix& matrix) {
  core::PipelineOptions pass = options;
  // The one global quantity: E-values must be computed against the whole
  // search space, not a shard's slice of it. By default that is this
  // set's residue total; an explicit caller value wins so a router can
  // substitute the cluster-wide total when this set is itself one shard
  // of a larger partition.
  if (pass.search_space_residues == 0.0) {
    pass.search_space_residues = static_cast<double>(set.total_residues);
  }

  core::PipelineResult merged;
  for (const std::shared_ptr<const LoadedShard>& shard_ptr : set.shards) {
    const LoadedShard& shard = *shard_ptr;
    // Residency is per shard image: each per-shard pass tells the RASC
    // backend which bank content it is about to stream, so a configured
    // board cache can skip the upload when that image is still in SRAM.
    pass.rasc.bank_image_id = shard.bank_image_id;
    core::PipelineResult piece = core::run_pipeline_with_index(
        query, shard.bank, shard.index.table, pass, matrix);

    // The query-side index is rebuilt per pass and identical each time;
    // everything else accumulates across shards.
    merged.counters.bank0_occurrences = piece.counters.bank0_occurrences;
    merged.counters.bank1_occurrences += piece.counters.bank1_occurrences;
    merged.counters.step2_pairs += piece.counters.step2_pairs;
    merged.counters.step2_cells += piece.counters.step2_cells;
    merged.counters.step2_hits += piece.counters.step2_hits;
    merged.counters.step3_extensions += piece.counters.step3_extensions;
    merged.counters.step3_eager_extensions +=
        piece.counters.step3_eager_extensions;
    merged.times.step1_index += piece.times.step1_index;
    merged.times.step2_ungapped += piece.times.step2_ungapped;
    merged.times.step3_gapped += piece.times.step3_gapped;
    merged.step2_wall_seconds += piece.step2_wall_seconds;
    if (merged.step2_engine.empty()) merged.step2_engine = piece.step2_engine;
    if (merged.step3_engine.empty()) merged.step3_engine = piece.step3_engine;
    merged.fpga_reports.insert(merged.fpga_reports.end(),
                               piece.fpga_reports.begin(),
                               piece.fpga_reports.end());

    const auto base = static_cast<std::uint32_t>(shard.sequence_base);
    merged.matches.reserve(merged.matches.size() + piece.matches.size());
    for (core::Match& match : piece.matches) {
      match.bank1_sequence += base;
      merged.matches.push_back(std::move(match));
    }
  }
  // Per-shard passes each end in finalize_matches, so every per-pair
  // dedup decision is already made (pairs never span shards); one total-
  // order sort over the union reproduces the unsharded output sequence.
  std::sort(merged.matches.begin(), merged.matches.end(), core::match_order);
  return merged;
}

}  // namespace psc::service
