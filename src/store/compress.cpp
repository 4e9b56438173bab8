#include "store/compress.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "store/format.hpp"

namespace psc::store {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;  // u8 stores length-4
constexpr std::size_t kWindow = 65535;              // u16 distance, 0 invalid

// Greedy matcher over hash chains keyed on the next 4 bytes. The chain
// walk is capped so pathological inputs (long runs) stay linear; a
// shorter match found early is good enough -- this is an archive
// format, not a compression benchmark.
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kMaxChain = 64;

// Chain links live in a ring of kRing slots indexed by position: the
// walk stops at the first link older than kWindow, and every slot it
// reads belongs to a position within kWindow < kRing of the current one,
// which no later insert has reused yet. So the ring yields the same
// token stream as one link per input byte, in bounded memory. Links are
// position + 1 (0 = none), truncated to u32; the truncation only matters
// past 4 GiB, where it can at worst pick a different -- still valid --
// match.
constexpr std::size_t kRing = std::size_t{1} << 16;
static_assert(kRing > kWindow, "a live link must not share a ring slot");

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of a and b, at most `limit` bytes.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t len = 0;
  while (len + sizeof(std::uint64_t) <= limit) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a + len, sizeof(x));
    std::memcpy(&y, b + len, sizeof(y));
    if (x != y) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<std::size_t>(std::countr_zero(x ^ y)) / 8;
      } else {
        return len + static_cast<std::size_t>(std::countl_zero(x ^ y)) / 8;
      }
    }
    len += sizeof(std::uint64_t);
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::vector<std::uint8_t> lzss_compress(std::span<const std::uint8_t> raw) {
  std::vector<std::uint8_t> out;
  if (raw.empty()) return out;
  out.reserve(raw.size() / 2 + 16);

  std::vector<std::uint32_t> head(std::size_t{1} << kHashBits, 0);
  std::vector<std::uint32_t> links(std::min(kRing, raw.size()), 0);
  const std::size_t ring_mask = kRing - 1;

  std::size_t flag_at = 0;  // position of the current flag byte in `out`
  int flag_bit = 8;         // 8 = need a fresh flag byte
  const auto begin_token = [&](bool is_match) {
    if (flag_bit == 8) {
      flag_at = out.size();
      out.push_back(0);
      flag_bit = 0;
    }
    if (is_match) out[flag_at] |= static_cast<std::uint8_t>(1u << flag_bit);
    ++flag_bit;
  };

  std::size_t pos = 0;
  const auto insert = [&](std::size_t at) {
    if (at + kMinMatch > raw.size()) return;
    const std::uint32_t h = hash4(raw.data() + at);
    links[at & ring_mask] = head[h];
    head[h] = static_cast<std::uint32_t>(at + 1);
  };

  const std::uint8_t* data = raw.data();
  while (pos < raw.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= raw.size()) {
      const std::size_t limit = std::min(kMaxMatch, raw.size() - pos);
      const auto here = static_cast<std::uint32_t>(pos + 1);
      std::uint32_t link = head[hash4(data + pos)];
      std::size_t chain = 0;
      while (link != 0 && chain < kMaxChain) {
        const std::size_t dist = static_cast<std::uint32_t>(here - link);
        if (dist == 0 || dist > kWindow) break;  // chain only gets older
        const std::size_t cand = pos - dist;
        // A candidate can only beat best_len if it also matches the byte
        // at best_len (best_len < limit: a full-length match ends the walk).
        if (data[cand + best_len] == data[pos + best_len]) {
          const std::size_t len = match_length(data + cand, data + pos, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len == limit) break;
          }
        }
        link = links[cand & ring_mask];
        ++chain;
      }
    }

    if (best_len >= kMinMatch) {
      begin_token(true);
      const std::uint16_t dist16 = static_cast<std::uint16_t>(best_dist);
      out.push_back(static_cast<std::uint8_t>(dist16 & 0xff));
      out.push_back(static_cast<std::uint8_t>(dist16 >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      for (std::size_t i = 0; i < best_len; ++i) insert(pos + i);
      pos += best_len;
    } else {
      begin_token(false);
      out.push_back(raw[pos]);
      insert(pos);
      ++pos;
    }
  }
  return out;
}

void lzss_decompress(std::span<const std::uint8_t> stream,
                     std::uint64_t raw_size, const std::string& path,
                     std::vector<std::uint8_t>& out) {
  if (raw_size == 0) {
    if (!stream.empty()) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       "compressed payload has trailing bytes: " + path);
    }
    return;
  }
  // Reject a header lying about the uncompressed size *before* sizing
  // any buffer from it: no stream of this length can legally expand
  // past the ratio bound, so the check also caps the allocation below
  // at kMaxExpansionRatio x the real file size.
  if (stream.empty() || raw_size > stream.size() * kMaxExpansionRatio) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "compressed payload cannot produce the recorded "
                     "uncompressed size: " +
                         path);
  }

  // Bytes already in `out` belong to the caller: matches may reach back
  // only into this stream's own output, which ends at `base + raw_size`.
  const std::size_t base = out.size();
  const std::size_t end = base + static_cast<std::size_t>(raw_size);
  out.reserve(end);
  std::size_t pos = 0;
  std::uint8_t flags = 0;
  int flag_bit = 8;
  while (out.size() < end) {
    if (flag_bit == 8) {
      if (pos >= stream.size()) {
        throw StoreError(StoreErrorCode::kCorrupt,
                         "compressed payload truncated: " + path);
      }
      flags = stream[pos++];
      flag_bit = 0;
    }
    const bool is_match = (flags >> flag_bit) & 1u;
    ++flag_bit;
    if (is_match) {
      if (stream.size() - pos < 3) {
        throw StoreError(StoreErrorCode::kCorrupt,
                         "compressed payload truncated: " + path);
      }
      const std::size_t dist = static_cast<std::size_t>(stream[pos]) |
                               (static_cast<std::size_t>(stream[pos + 1]) << 8);
      const std::size_t len = kMinMatch + stream[pos + 2];
      pos += 3;
      if (dist == 0 || dist > out.size() - base || out.size() + len > end) {
        throw StoreError(StoreErrorCode::kCorrupt,
                         "compressed payload references invalid match: " +
                             path);
      }
      // Byte-at-a-time on purpose: overlapping matches (dist < len)
      // replicate the run they are still producing.
      std::size_t src = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    } else {
      if (pos >= stream.size()) {
        throw StoreError(StoreErrorCode::kCorrupt,
                         "compressed payload truncated: " + path);
      }
      out.push_back(stream[pos++]);
    }
  }
  if (pos != stream.size()) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "compressed payload has trailing bytes: " + path);
  }
}

}  // namespace psc::store
