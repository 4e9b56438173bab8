#include "store/bank_store.hpp"

#include <cstring>
#include <limits>
#include <span>
#include <string_view>

#include "bio/alphabet.hpp"

namespace psc::store {

namespace {

/// Highest valid encoded residue value + 1 for a bank kind.
std::uint8_t alphabet_limit(bio::SequenceKind kind) {
  return kind == bio::SequenceKind::kProtein
             ? static_cast<std::uint8_t>(bio::kProteinAlphabetSize)
             : static_cast<std::uint8_t>(bio::kNucleotideN + 1);
}

}  // namespace

std::uint64_t kind_code(bio::SequenceKind kind) {
  return kind == bio::SequenceKind::kProtein ? 0 : 1;
}

bio::SequenceKind recorded_kind(const FileHeader& header,
                                const std::string& what,
                                const std::string& path) {
  if (header.meta[0] > 1) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     what + " kind field out of range: " + path);
  }
  return header.meta[0] == 0 ? bio::SequenceKind::kProtein
                             : bio::SequenceKind::kDna;
}

std::uint64_t save_bank(const std::string& path, const bio::SequenceBank& bank,
                        bool compress) {
  return write_store_file(
      path, FileKind::kBank,
      {kind_code(bank.kind()), bank.size(), bank.total_residues(), 0},
      compress, [&](PayloadSink& sink) {
        for (const bio::SequenceView seq : bank) {
          if (seq.id().size() > std::numeric_limits<std::uint32_t>::max() ||
              seq.size() > std::numeric_limits<std::uint32_t>::max()) {
            throw StoreError(StoreErrorCode::kIo,
                             "save_bank: sequence too large for format");
          }
          const auto id_bytes = static_cast<std::uint32_t>(seq.id().size());
          const auto residue_bytes = static_cast<std::uint32_t>(seq.size());
          sink.write(&id_bytes, sizeof(id_bytes));
          sink.write(&residue_bytes, sizeof(residue_bytes));
          sink.write(seq.id().data(), id_bytes);
          sink.write(seq.data(), residue_bytes);
        }
      });
}

BankFileInfo inspect_bank(const std::string& path) {
  const MmapFile file = MmapFile::open(path);
  const FileHeader header = read_header(file.bytes(), FileKind::kBank, path);
  BankFileInfo info;
  info.version = header.version;
  info.compression = header.reserved;
  info.kind = recorded_kind(header, "bank", path);
  info.sequence_count = header.meta[1];
  info.total_residues = header.meta[2];
  info.payload_checksum = header.payload_checksum;
  return info;
}

bio::SequenceBank load_bank(const std::string& path, bool verify_checksum) {
  return decode_bank(read_store_file(path, FileKind::kBank, verify_checksum));
}

bio::SequenceBank decode_bank(const StoreImage& image) {
  const FileHeader& header = image.header;
  const std::string& path = image.path;
  const std::uint8_t* payload = image.payload().data();
  const bio::SequenceKind kind = recorded_kind(header, "bank", path);
  const std::uint8_t limit = alphabet_limit(kind);

  // Every record carries two u32 lengths, its id and its residues, so a
  // header that claims more sequences and residues than the payload could
  // hold is corrupt; past that check it sizes the bank in one allocation
  // per array.
  const std::uint64_t end = header.payload_bytes;
  constexpr std::uint64_t kRecordHeader = 2 * sizeof(std::uint32_t);
  if (header.meta[1] > end / kRecordHeader ||
      header.meta[2] > end - header.meta[1] * kRecordHeader) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank header counts exceed the payload: " + path);
  }
  bio::SequenceBank bank(kind);
  bank.reserve(header.meta[1], header.meta[2],
               end - header.meta[1] * kRecordHeader - header.meta[2]);
  std::uint64_t cursor = 0;
  for (std::uint64_t s = 0; s < header.meta[1]; ++s) {
    if (end - cursor < 2 * sizeof(std::uint32_t)) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "bank record header truncated: " + path);
    }
    std::uint32_t id_bytes = 0;
    std::uint32_t residue_bytes = 0;
    std::memcpy(&id_bytes, payload + cursor, sizeof(id_bytes));
    std::memcpy(&residue_bytes, payload + cursor + sizeof(id_bytes),
                sizeof(residue_bytes));
    cursor += 2 * sizeof(std::uint32_t);
    if (end - cursor < std::uint64_t{id_bytes} + residue_bytes) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "bank record body truncated: " + path);
    }
    const std::string_view id(reinterpret_cast<const char*>(payload + cursor),
                              id_bytes);
    cursor += id_bytes;
    const std::span<const std::uint8_t> residues(payload + cursor,
                                                 residue_bytes);
    cursor += residue_bytes;
    for (const std::uint8_t code : residues) {
      if (code >= limit) {
        throw StoreError(StoreErrorCode::kCorrupt,
                         "bank residue code out of alphabet: " + path);
      }
    }
    bank.add(bio::SequenceView(id, kind, residues));
  }
  if (cursor != end) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank has trailing bytes after last record: " + path);
  }
  if (bank.total_residues() != header.meta[2]) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank residue total mismatch: " + path);
  }
  return bank;
}

}  // namespace psc::store
