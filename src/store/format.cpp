#include "store/format.hpp"

#include <fstream>

#include "store/compress.hpp"

namespace psc::store {

FileHeader read_header(std::span<const std::uint8_t> bytes, FileKind kind,
                       const std::string& path) {
  const FileKindInfo& info = file_kind_info(kind);
  const std::string name = info.name;
  if (bytes.size() < sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     name + " file truncated before header: " + path);
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != info.magic) {
    throw StoreError(StoreErrorCode::kBadMagic,
                     std::string("not a ") + info.extension + " file: " + path);
  }
  if (header.version < info.min_version || header.version > kFormatVersion) {
    throw StoreError(StoreErrorCode::kBadVersion,
                     "unsupported " + name + " format version " +
                         std::to_string(header.version) + ": " + path);
  }
  // v1/v2 writers always wrote 0 in the tag word, so a tag there (or on
  // a kind that is never compressed, or an unknown one) is damage.
  if (header.reserved != kCompressionNone &&
      (!info.compressible || header.version < 3 ||
       header.reserved > kCompressionLzss)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     name + " compression tag out of range: " + path);
  }
  return header;
}

StoreImage read_payload(MmapFile file, const FileHeader& header,
                        FileKind kind, std::string path,
                        bool verify_checksum) {
  const std::string name = file_kind_info(kind).name;
  if (header.reserved != kCompressionNone) {
    std::vector<std::uint8_t> image(file.data(),
                                    file.data() + sizeof(FileHeader));
    lzss_decompress(file.bytes().subspan(sizeof(FileHeader)),
                    header.payload_bytes, path, image);
    file = MmapFile::from_owned(std::move(image));
  }
  if (header.payload_bytes != file.size() - sizeof(FileHeader)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     name + " payload length mismatch: " + path);
  }
  if (verify_checksum &&
      fnv1a64(file.data() + sizeof(FileHeader), header.payload_bytes) !=
          header.payload_checksum) {
    throw StoreError(StoreErrorCode::kChecksum,
                     name + " payload checksum mismatch: " + path);
  }
  return StoreImage{header, std::move(file), std::move(path)};
}

StoreImage read_store_file(const std::string& path, FileKind kind,
                           bool verify_checksum) {
  MmapFile file = MmapFile::open(path);
  const FileHeader header = read_header(file.bytes(), kind, path);
  return read_payload(std::move(file), header, kind, path, verify_checksum);
}

std::uint64_t write_store_file(const std::string& path, FileKind kind,
                               const std::array<std::uint64_t, 4>& meta,
                               bool compress,
                               const std::function<void(PayloadSink&)>& emit) {
  const FileKindInfo& info = file_kind_info(kind);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw StoreError(StoreErrorCode::kIo,
                     std::string("cannot create ") + info.name +
                         " file: " + path);
  }
  FileHeader header;
  header.magic = info.magic;
  std::copy(meta.begin(), meta.end(), header.meta);
  // Placeholder header, rewritten once the payload is known.
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  PayloadSink sink;
  if (!compress) sink.out = &out;
  emit(sink);
  header.payload_bytes = sink.bytes;
  header.payload_checksum = sink.checksum.digest();
  if (compress) {
    // Length and checksum describe the raw bytes; only the token
    // stream reaches the disk.
    header.reserved = kCompressionLzss;
    const std::vector<std::uint8_t> packed = lzss_compress(sink.raw);
    out.write(reinterpret_cast<const char*>(packed.data()),
              static_cast<std::streamsize>(packed.size()));
  }
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.flush();
  if (!out) {
    throw StoreError(StoreErrorCode::kIo, std::string("cannot write ") +
                                              info.name + " file: " + path);
  }
  return header.payload_checksum;
}

}  // namespace psc::store
