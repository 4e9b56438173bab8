// Optional per-section compression for cold shard archives (format v3).
//
// A store file whose header records a non-zero compression tag keeps the
// usual 64-byte FileHeader uncompressed, followed by an LZSS-compressed
// image of the payload. `payload_bytes` and `payload_checksum` always
// describe the *uncompressed* payload, so every existing validation
// (length, checksum, section geometry) runs unchanged after
// decompression, and an uncompressed file (tag 0) never touches this
// code -- the mmap zero-copy fast path is preserved bit-for-bit.
//
// The codec is deliberately self-contained (no external dependency):
// byte-oriented LZSS over a 64 KiB window. Token stream: each flag byte
// governs the next 8 tokens, LSB first; bit 0 = one literal byte, bit 1
// = a match {u16 distance 1..65535, u8 length-4} copying 4..259 bytes
// from the already-decoded output. Worst-case expansion of the *decoder*
// is 8*259 raw bytes per 25 compressed bytes, which bounds any
// allocation a hostile header could request (see kMaxExpansionRatio).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "store/mmap_file.hpp"

namespace psc::store {

/// Hard ceiling on uncompressed/compressed size for a well-formed LZSS
/// stream (ceil(8 * 259 / 25) = 83). A header whose payload_bytes
/// exceeds `compressed_size * kMaxExpansionRatio` is structurally
/// impossible and is rejected before any allocation of payload_bytes.
inline constexpr std::uint64_t kMaxExpansionRatio = 83;

/// Compresses `raw` into the LZSS token stream described above. The
/// output is self-delimiting only together with the known raw size (the
/// header's payload_bytes), which is how the decoder is driven.
std::vector<std::uint8_t> lzss_compress(std::span<const std::uint8_t> raw);

/// Decompresses `stream` onto the end of `out`, which keeps whatever it
/// already holds (a store image's header). The stream must decode to
/// exactly `raw_size` bytes and consume exactly the whole stream. Throws
/// StoreError(kCorrupt) on any structural damage (truncation, distance
/// past the stream's own output, trailing garbage) -- and, before
/// allocating anything, when `raw_size` is larger than any stream of
/// this length could produce.
void lzss_decompress(std::span<const std::uint8_t> stream,
                     std::uint64_t raw_size, const std::string& path,
                     std::vector<std::uint8_t>& out);

/// The same, into a fresh buffer.
inline std::vector<std::uint8_t> lzss_decompress(
    std::span<const std::uint8_t> stream, std::uint64_t raw_size,
    const std::string& path) {
  std::vector<std::uint8_t> out;
  lzss_decompress(stream, raw_size, path, out);
  return out;
}

/// The decompress-on-load seam shared by every reader: returns `file`
/// untouched when its header records compression tag 0 (the mmap fast
/// path), otherwise rebuilds an owned image [header with the tag
/// cleared | uncompressed payload] that downstream validation reads
/// exactly like a file that was never compressed. `file` must hold at
/// least a full FileHeader and have passed the magic/version checks.
MmapFile decompress_store_image(MmapFile file, const std::string& path);

}  // namespace psc::store
