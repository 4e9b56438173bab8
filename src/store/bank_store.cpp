#include "store/bank_store.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string_view>

#include "bio/alphabet.hpp"
#include "store/compress.hpp"
#include "store/format.hpp"
#include "store/mmap_file.hpp"

namespace psc::store {

namespace {

std::uint64_t kind_code(bio::SequenceKind kind) {
  return kind == bio::SequenceKind::kProtein ? 0 : 1;
}

/// Highest valid encoded residue value + 1 for a bank kind.
std::uint8_t alphabet_limit(bio::SequenceKind kind) {
  return kind == bio::SequenceKind::kProtein
             ? static_cast<std::uint8_t>(bio::kProteinAlphabetSize)
             : static_cast<std::uint8_t>(bio::kNucleotideN + 1);
}

class ChecksummingWriter {
 public:
  explicit ChecksummingWriter(std::ofstream& out) : out_(out) {}

  void write(const void* data, std::size_t size) {
    checksum_.update(data, size);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    written_ += size;
  }

  std::uint64_t bytes_written() const { return written_; }
  std::uint64_t digest() const { return checksum_.digest(); }

 private:
  std::ofstream& out_;
  Fnv1a64 checksum_;
  std::uint64_t written_ = 0;
};

FileHeader read_bank_header(const MmapFile& file, const std::string& path) {
  if (file.size() < sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank file truncated before header: " + path);
  }
  FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != kBankMagic) {
    throw StoreError(StoreErrorCode::kBadMagic,
                     "not a .pscbank file: " + path);
  }
  if (header.version < kMinFormatVersion || header.version > kFormatVersion) {
    throw StoreError(StoreErrorCode::kBadVersion,
                     "unsupported bank format version " +
                         std::to_string(header.version) + ": " + path);
  }
  if (header.reserved != kCompressionNone &&
      (header.version < 3 || header.reserved > kCompressionLzss)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank compression tag out of range: " + path);
  }
  return header;
}

/// Serialises the bank's record stream through `write(data, size)`.
template <typename Writer>
void write_bank_payload(const bio::SequenceBank& bank, Writer&& write) {
  for (const bio::SequenceView seq : bank) {
    if (seq.id().size() > std::numeric_limits<std::uint32_t>::max() ||
        seq.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw StoreError(StoreErrorCode::kIo,
                       "save_bank: sequence too large for format");
    }
    const std::uint32_t id_bytes = static_cast<std::uint32_t>(seq.id().size());
    const std::uint32_t residue_bytes = static_cast<std::uint32_t>(seq.size());
    write(&id_bytes, sizeof(id_bytes));
    write(&residue_bytes, sizeof(residue_bytes));
    write(seq.id().data(), id_bytes);
    write(seq.data(), residue_bytes);
  }
}

}  // namespace

std::uint64_t save_bank(const std::string& path, const bio::SequenceBank& bank,
                        bool compress) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw StoreError(StoreErrorCode::kIo, "cannot create bank file: " + path);
  }

  FileHeader header;
  header.magic = kBankMagic;
  header.meta[0] = kind_code(bank.kind());
  header.meta[1] = bank.size();
  header.meta[2] = bank.total_residues();

  if (compress) {
    // Compressed archives buffer the payload: length and checksum
    // describe the raw bytes, only the token stream hits the disk.
    std::vector<std::uint8_t> raw;
    write_bank_payload(bank, [&](const void* data, std::size_t size) {
      const auto* p = static_cast<const std::uint8_t*>(data);
      raw.insert(raw.end(), p, p + size);
    });
    header.reserved = kCompressionLzss;
    header.payload_bytes = raw.size();
    header.payload_checksum = fnv1a64(raw.data(), raw.size());
    const std::vector<std::uint8_t> packed = lzss_compress(raw);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(packed.data()),
              static_cast<std::streamsize>(packed.size()));
  } else {
    // Placeholder header; rewritten with payload length + checksum below.
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    ChecksummingWriter writer(out);
    write_bank_payload(bank, [&](const void* data, std::size_t size) {
      writer.write(data, size);
    });
    header.payload_bytes = writer.bytes_written();
    header.payload_checksum = writer.digest();
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  }
  out.flush();
  if (!out) {
    throw StoreError(StoreErrorCode::kIo, "cannot write bank file: " + path);
  }
  return header.payload_checksum;
}

BankFileInfo inspect_bank(const std::string& path) {
  const MmapFile file = MmapFile::open(path);
  const FileHeader header = read_bank_header(file, path);
  if (header.meta[0] > 1) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank kind field out of range: " + path);
  }
  BankFileInfo info;
  info.version = header.version;
  info.compression = header.reserved;
  info.kind = header.meta[0] == 0 ? bio::SequenceKind::kProtein
                                  : bio::SequenceKind::kDna;
  info.sequence_count = header.meta[1];
  info.total_residues = header.meta[2];
  info.payload_checksum = header.payload_checksum;
  return info;
}

bio::SequenceBank load_bank(const std::string& path, bool verify_checksum) {
  MmapFile file = MmapFile::open(path);
  FileHeader header = read_bank_header(file, path);
  if (header.reserved != kCompressionNone) {
    file = decompress_store_image(std::move(file), path);
    std::memcpy(&header, file.data(), sizeof(header));
  }
  if (header.payload_bytes != file.size() - sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank payload length mismatch: " + path);
  }
  const std::uint8_t* payload = file.data() + sizeof(FileHeader);
  if (verify_checksum &&
      fnv1a64(payload, header.payload_bytes) != header.payload_checksum) {
    throw StoreError(StoreErrorCode::kChecksum,
                     "bank payload checksum mismatch: " + path);
  }
  if (header.meta[0] > 1) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "bank kind field out of range: " + path);
  }
  const bio::SequenceKind kind = header.meta[0] == 0
                                     ? bio::SequenceKind::kProtein
                                     : bio::SequenceKind::kDna;
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
