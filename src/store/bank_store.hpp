// Persistent SequenceBank storage (.pscbank): the sequences of one bank
// in encoded form, so a genome translated and encoded once can be
// reloaded by every later query run without re-parsing FASTA.
//
// Payload layout (after the common FileHeader; see format.hpp):
//   repeat sequence_count times:
//     u32 id_bytes | u32 residue_bytes | id | encoded residues
// Header meta: [0] sequence kind, [1] sequence count, [2] total residues.
#pragma once

#include <cstdint>
#include <string>

#include "bio/sequence.hpp"
#include "store/format.hpp"

namespace psc::store {

/// Header-level description of a bank file (no payload decode); cheap
/// enough to call before every index load, which is how the service and
/// tools obtain the bank checksum a v2 index records.
struct BankFileInfo {
  std::uint32_t version = 0;
  std::uint32_t compression = 0;  ///< header tag (kCompressionNone/Lzss)
  bio::SequenceKind kind = bio::SequenceKind::kProtein;
  std::uint64_t sequence_count = 0;
  std::uint64_t total_residues = 0;
  std::uint64_t payload_checksum = 0;
};

/// The sequence kind bank and manifest headers record in meta[0]:
/// 0 protein, 1 DNA. Any other code is kCorrupt, reported for `what`
/// ("bank", "manifest") at `path`.
std::uint64_t kind_code(bio::SequenceKind kind);
bio::SequenceKind recorded_kind(const FileHeader& header,
                                const std::string& what,
                                const std::string& path);

/// Writes `bank` to `path`, overwriting any existing file. Throws
/// StoreError(kIo) on filesystem failure. Returns the payload checksum,
/// which callers pass to save_index so the index records which bank it
/// belongs to. `compress` stores the payload as a v3 LZSS archive; the
/// returned checksum is over the uncompressed payload either way, so a
/// compressed and an uncompressed save of the same bank pair with the
/// same index.
std::uint64_t save_bank(const std::string& path, const bio::SequenceBank& bank,
                        bool compress = false);

/// Reads a bank's header only. Throws StoreError on anything that is not
/// a readable, supported-version .pscbank file.
BankFileInfo inspect_bank(const std::string& path);

/// Reads a bank back. Residue codes are range-checked against the bank's
/// alphabet and every length field is bounds-checked, so a damaged file
/// throws a typed StoreError instead of corrupting downstream stages.
/// `verify_checksum` (default on) additionally rejects any payload whose
/// digest differs from the recorded one.
bio::SequenceBank load_bank(const std::string& path,
                            bool verify_checksum = true);

/// The payload half of load_bank: decodes a checked kBank image (see
/// read_store_file / read_payload), so a caller that already holds the
/// mapping -- to compare its header first -- reads the file once.
bio::SequenceBank decode_bank(const StoreImage& image);

}  // namespace psc::store
