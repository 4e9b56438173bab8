// The container format shared by every store file: the bank (.pscbank),
// its index (.pscidx) and the shard manifest (.pscman). Each file is a
// fixed little-endian 64-byte header -- magic, format version,
// compression tag, payload length, payload checksum and four
// kind-specific metadata words -- followed by the kind's payload, whose
// sections are 8-byte aligned so the mmap-backed index reader can hand
// out properly aligned views.
//
// Only this module checks or writes the container: the kind table
// (kFileKinds), one reader (read_header + read_payload) and one writer
// (write_store_file). The bank, index and manifest stores keep only
// their payload layouts and meta checks.
//
// Every malformed input (truncation, bad magic, version skew, checksum
// mismatch, model/kind mismatch) is reported as a typed StoreError; the
// readers never trust a length or offset from the file without bounds-
// checking it first.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/mmap_file.hpp"

namespace psc::store {

/// Current format version; bump on any layout change. Writers always
/// emit the current version; readers accept [the kind's min_version,
/// kFormatVersion] and branch on the recorded version rather than
/// guessing. v2 adds the bank-payload checksum section to .pscidx (so a
/// mismatched bank/index pair is rejected before any query) and the
/// shard manifest file type; v3 adds the optional compression tag in
/// the header's formerly-reserved word (payload length and checksum
/// still describe the uncompressed payload) and a manifest revision
/// counter for append-only ingest. v1/v2 files read back unchanged,
/// with the bank checksum reported as "unrecorded" (v1) and the
/// manifest revision as 0 (v2).
inline constexpr std::uint32_t kFormatVersion = 3;

/// Values of FileHeader::reserved (v3+; v1/v2 writers always wrote 0,
/// so tag 0 doubles as "uncompressed" for every version). A non-zero
/// tag on a pre-v3 file, or an unknown tag, is structural damage.
inline constexpr std::uint32_t kCompressionNone = 0;
inline constexpr std::uint32_t kCompressionLzss = 1;

/// What went wrong, for callers that branch on failure kind (the service
/// turns kIo into "no such bank" and the rest into "corrupt store").
enum class StoreErrorCode {
  kIo,             ///< open/read/write/map failure
  kBadMagic,       ///< not a store file (or wrong file type / endianness)
  kBadVersion,     ///< produced by an incompatible format version
  kCorrupt,        ///< structural damage: truncation, bad lengths/offsets
  kChecksum,       ///< payload bytes do not match the recorded digest
  kModelMismatch,  ///< index built under a different seed model
  kKindMismatch,   ///< bank holds the other sequence kind
  kBankMismatch,   ///< index (or manifest) belongs to a different bank
};

class StoreError : public std::runtime_error {
 public:
  StoreError(StoreErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  StoreErrorCode code() const noexcept { return code_; }

 private:
  StoreErrorCode code_;
};

/// The common file header. Exactly 64 bytes; `meta` is interpreted per
/// file kind (see bank_store.hpp, index_store.hpp, shard_store.hpp).
struct FileHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = kFormatVersion;
  std::uint32_t reserved = 0;          ///< compression tag (v3+), else 0
  std::uint64_t payload_bytes = 0;     ///< *uncompressed* payload bytes
  std::uint64_t payload_checksum = 0;  ///< fnv1a64 over those (raw) bytes
  std::uint64_t meta[4] = {0, 0, 0, 0};
};
static_assert(sizeof(FileHeader) == 64, "header must stay 64 bytes");

/// Incremental payload checksum: eight interleaved FNV-1a (64-bit)
/// lanes, each consuming one u64 per 64-byte block, folded together
/// with the total length at digest time. The lanes break FNV's serial
/// multiply dependency chain, so verifying a mapped index costs a small
/// fraction of rebuilding it while still covering every payload byte
/// (it is an integrity check, not an authenticity one). The digest is
/// independent of how the input was chunked across update() calls.
class Fnv1a64 {
 public:
  void update(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    total_ += size;
    while (size > 0) {
      if (buffered_ == 0 && size >= kBlock) {
        // Fast path: consume whole blocks straight from the input.
        const std::size_t blocks = size / kBlock;
        absorb(bytes, blocks);
        bytes += blocks * kBlock;
        size -= blocks * kBlock;
        continue;
      }
      const std::size_t take = std::min(size, kBlock - buffered_);
      std::memcpy(buffer_ + buffered_, bytes, take);
      buffered_ += take;
      bytes += take;
      size -= take;
      if (buffered_ == kBlock) {
        absorb(buffer_, 1);
        buffered_ = 0;
      }
    }
  }

  std::uint64_t digest() const noexcept {
    std::uint64_t h = kBasis;
    for (const std::uint64_t lane : lanes_) {
      h = (h ^ lane) * kPrime;
    }
    for (std::size_t i = 0; i < buffered_; ++i) {
      h = (h ^ buffer_[i]) * kPrime;
    }
    return (h ^ total_) * kPrime;
  }

 private:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kBlock = kLanes * sizeof(std::uint64_t);
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  static constexpr std::uint64_t kBasis = 14695981039346656037ull;

  void absorb(const unsigned char* block, std::size_t blocks) noexcept {
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::uint64_t word = 0;
        std::memcpy(&word, block + b * kBlock + lane * sizeof(word),
                    sizeof(word));
        lanes_[lane] = (lanes_[lane] ^ word) * kPrime;
      }
    }
  }

  std::uint64_t lanes_[kLanes] = {kBasis,     kBasis + 1, kBasis + 2, kBasis + 3,
                                 kBasis + 4, kBasis + 5, kBasis + 6, kBasis + 7};
  unsigned char buffer_[kBlock] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

inline std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  Fnv1a64 h;
  h.update(data, size);
  return h.digest();
}

/// Rounds `n` up to the next multiple of 8 (section alignment).
inline constexpr std::uint64_t pad8(std::uint64_t n) noexcept {
  return (n + 7) & ~std::uint64_t{7};
}

/// The three store file kinds; each indexes its row of kFileKinds.
enum class FileKind { kBank, kIndex, kManifest };

/// What the reader checks a file of one kind against.
struct FileKindInfo {
  std::uint64_t magic;
  const char* name;           ///< "bank", "index", "manifest"
  const char* extension;      ///< ".pscbank", ".pscidx", ".pscman"
  std::uint32_t min_version;  ///< oldest version that had this kind
  bool compressible;          ///< may carry the LZSS tag (v3+)
};

/// Magic values are asymmetric byte strings ("PSCBNK01" / "PSCIDX01" /
/// "PSCMAN01" as little-endian u64) so a byte-swapped read on a
/// big-endian host fails the magic check instead of misparsing lengths.
/// The manifest kind arrived with v2, and manifests are never written
/// compressed (they are a few hundred bytes), so a tag on one is damage.
inline constexpr std::array<FileKindInfo, 3> kFileKinds = {{
    {0x31304b4e42435350ull, "bank", ".pscbank", 1, true},
    {0x3130584449435350ull, "index", ".pscidx", 1, true},
    {0x31304e414d435350ull, "manifest", ".pscman", 2, false},
}};

inline const FileKindInfo& file_kind_info(FileKind kind) {
  return kFileKinds[static_cast<std::size_t>(kind)];
}

/// A checked store file: its header as recorded (compression tag
/// included) and its payload, which `file` holds right behind a header
/// -- the mapping itself for a plain file (zero-copy), or one owned
/// buffer [header | decoded payload] for an LZSS one.
struct StoreImage {
  FileHeader header;
  MmapFile file;
  std::string path;  ///< for error messages

  std::span<const std::uint8_t> payload() const noexcept {
    return file.bytes().subspan(sizeof(FileHeader));
  }
};

/// Reader, first stage: the header of `bytes`, checked in this order --
/// shorter than a header (kCorrupt), magic (kBadMagic), version outside
/// [min_version, kFormatVersion] (kBadVersion), compression tag on a
/// kind or version without one, or unknown (kCorrupt).
FileHeader read_header(std::span<const std::uint8_t> bytes, FileKind kind,
                       const std::string& path);

/// Reader, second stage: `file` with `header` (from read_header over
/// the same bytes) becomes an image. An LZSS payload is decoded into
/// one buffer first; then a payload length other than the recorded one
/// is kCorrupt and, with `verify_checksum`, a digest other than the
/// recorded one is kChecksum.
StoreImage read_payload(MmapFile file, const FileHeader& header,
                        FileKind kind, std::string path,
                        bool verify_checksum = true);

/// Both stages over the file at `path` (kIo when it cannot be mapped).
StoreImage read_store_file(const std::string& path, FileKind kind,
                           bool verify_checksum = true);

/// Where a payload emitter writes: every byte is checksummed and
/// counted, then streamed to the file (`out`) or, for an LZSS file,
/// buffered once in `raw`.
struct PayloadSink {
  std::ostream* out = nullptr;
  std::vector<std::uint8_t> raw;
  Fnv1a64 checksum;
  std::uint64_t bytes = 0;

  void write(const void* data, std::size_t size) {
    checksum.update(data, size);
    bytes += size;
    if (out != nullptr) {
      out->write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(size));
    } else {
      const auto* p = static_cast<const std::uint8_t*>(data);
      raw.insert(raw.end(), p, p + size);
    }
  }
};

/// The writer: creates (or overwrites) `path` as a current-version file
/// of `kind` whose header carries `meta`, and whose payload is what
/// `emit` writes into its sink. `compress` (compressible kinds only)
/// stores the payload as LZSS; length and checksum describe the raw
/// payload either way. Returns the payload checksum. Throws
/// StoreError(kIo) when the file cannot be created or written.
std::uint64_t write_store_file(const std::string& path, FileKind kind,
                               const std::array<std::uint64_t, 4>& meta,
                               bool compress,
                               const std::function<void(PayloadSink&)>& emit);

}  // namespace psc::store
