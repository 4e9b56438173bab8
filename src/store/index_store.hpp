// Persistent IndexTable storage (.pscidx): step 1's T-table for one bank,
// saved once and reloaded as a zero-copy view over an mmap'ed file -- the
// index-once / query-many seam the resident search service builds on.
//
// Payload layout (after the common FileHeader; all sections 8-aligned):
//   bank checksum: u64 (v2+ only; the .pscbank payload checksum this
//                  index was built from, 0 = unrecorded)
//   seed-model name (meta[3] bytes, zero-padded to 8)
//   starts:      (key_space + 1) x u64
//   occurrences: occurrence_count x {u32 sequence, u32 offset}
// Header meta: [0] model fingerprint, [1] key_space, [2] occurrence
// count, [3] model name length.
//
// The loader validates the header, the layout invariants and (by
// default) the payload checksum, then constructs the table via
// IndexTable::from_raw_spans -- no per-occurrence copying or rebuild.
// A table is only handed back if the caller's seed model fingerprint
// matches the one recorded at save time.
#pragma once

#include <string>

#include "bio/sequence.hpp"
#include "index/index_table.hpp"
#include "index/seed_model.hpp"
#include "store/format.hpp"
#include "store/mmap_file.hpp"

namespace psc::store {

/// Header-level description of an index file (no payload access); lets
/// tools discover which seed model a saved index needs.
struct IndexFileInfo {
  std::uint32_t version = 0;
  std::uint32_t compression = 0;  ///< header tag (kCompressionNone/Lzss)
  std::string model_name;
  std::uint64_t model_fingerprint = 0;
  std::uint64_t key_space = 0;
  std::uint64_t occurrence_count = 0;
  /// Payload checksum of the .pscbank this index was built from (v2+;
  /// 0 for v1 files and for indexes saved without one).
  std::uint64_t bank_checksum = 0;
};

/// A loaded index: `table` is a view into `file`'s mapping, so the pair
/// must stay together (move-only, like MmapFile).
struct LoadedIndex {
  MmapFile file;
  index::IndexTable table;
  std::string model_name;
  std::uint64_t bank_checksum = 0;  ///< as recorded (0 = unrecorded)
};

/// Writes `table` (built under `model`) to `path`. `bank_checksum` is the
/// payload checksum save_bank returned for the bank the table indexes;
/// recording it (non-zero) lets every later load reject an index paired
/// with the wrong bank before any query runs. 0 = unrecorded (tables not
/// derived from a saved bank). `compress` stores the payload as a v3
/// LZSS archive (loads decompress into an owned image; an uncompressed
/// save keeps the mmap zero-copy load path).
void save_index(const std::string& path, const index::IndexTable& table,
                const index::SeedModel& model,
                std::uint64_t bank_checksum = 0,
                bool compress = false);

/// Reads the header of a saved index. Throws StoreError on anything that
/// is not a readable, supported-version .pscidx file.
IndexFileInfo inspect_index(const std::string& path);

/// Maps `path` and returns a zero-copy view table. Throws StoreError:
///  - kModelMismatch when `model`'s fingerprint differs from the file's;
///  - kBankMismatch when both `expected_bank_checksum` and the recorded
///    bank checksum are non-zero and disagree (the index belongs to a
///    different bank) -- checked before any payload section is touched;
///  - kCorrupt/kChecksum/kBadMagic/kBadVersion on damaged input;
///  - kCorrupt when `bank` is given and any occurrence falls outside it
///    (the saved index does not belong to that bank).
LoadedIndex load_index(const std::string& path, const index::SeedModel& model,
                       const bio::SequenceBank* bank = nullptr,
                       bool verify_checksum = true,
                       std::uint64_t expected_bank_checksum = 0);

/// The payload half of load_index, over a checked kIndex image (see
/// read_store_file); the table views the image's bytes, so a plain
/// file stays a zero-copy mapping.
LoadedIndex decode_index(StoreImage image, const index::SeedModel& model,
                         const bio::SequenceBank* bank = nullptr,
                         std::uint64_t expected_bank_checksum = 0);

}  // namespace psc::store
