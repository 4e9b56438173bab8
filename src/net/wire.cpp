#include "net/wire.hpp"

#include <cstring>
#include <limits>

namespace psc::net {

namespace {

using core::codec::put_bytes;
using core::codec::put_f64;
using core::codec::put_u32;
using core::codec::put_u64;

// Search-request flag bits.
constexpr std::uint32_t kFlagWithTraceback = 1u << 0;
constexpr std::uint32_t kFlagCompositionStats = 1u << 1;

std::vector<std::uint8_t> frame_with_payload(
    MessageType type, std::span<const std::uint8_t> payload) {
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(type);
  header.payload_bytes = payload.size();
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(header) + payload.size());
  put_bytes(out, &header, sizeof(header));
  put_bytes(out, payload.data(), payload.size());
  return out;
}

}  // namespace

std::string wire_error_code_name(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadFrame: return "bad-frame";
    case WireErrorCode::kPayloadTooLarge: return "payload-too-large";
    case WireErrorCode::kBadRequest: return "bad-request";
    case WireErrorCode::kBankNotFound: return "bank-not-found";
    case WireErrorCode::kCorruptStore: return "corrupt-store";
    case WireErrorCode::kTooManyInFlight: return "too-many-in-flight";
    case WireErrorCode::kShutdown: return "shutdown";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kTimeout: return "timeout";
    case WireErrorCode::kShardUnavailable: return "shard-unavailable";
    case WireErrorCode::kUnreachable: return "unreachable";
    case WireErrorCode::kQuotaExceeded: return "quota-exceeded";
    case WireErrorCode::kAdmissionRejected: return "admission-rejected";
    case WireErrorCode::kRevisionMismatch: return "revision-mismatch";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(MessageType type,
                                       std::span<const std::uint8_t> payload) {
  return frame_with_payload(type, payload);
}

std::vector<std::uint8_t> encode_frame(MessageType type) {
  return frame_with_payload(type, {});
}

std::vector<std::uint8_t> encode_error_frame(WireErrorCode code,
                                             const std::string& message) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(code));
  put_u32(payload, static_cast<std::uint32_t>(message.size()));
  put_bytes(payload, message.data(), message.size());
  return frame_with_payload(MessageType::kError, payload);
}

WireError decode_error_payload(std::span<const std::uint8_t> payload) {
  core::codec::Reader reader(payload);
  const std::uint32_t code = reader.u32("error code");
  const std::uint32_t length = reader.u32("error message length");
  const auto bytes = reader.bytes(length, "error message");
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after error payload");
  }
  if (code < static_cast<std::uint32_t>(WireErrorCode::kBadFrame) ||
      code > static_cast<std::uint32_t>(WireErrorCode::kRevisionMismatch)) {
    throw core::CodecError("codec: error code out of range");
  }
  return WireError(
      static_cast<WireErrorCode>(code),
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::vector<std::uint8_t> encode_search_request(
    const SearchRequestFrame& request) {
  std::vector<std::uint8_t> out;
  put_u32(out, kSearchRequestCodecVersion);
  std::uint32_t flags = 0;
  if (request.options.with_traceback) flags |= kFlagWithTraceback;
  if (request.options.composition_based_stats) flags |= kFlagCompositionStats;
  put_u32(out, flags);
  put_f64(out, request.options.e_value_cutoff);
  put_f64(out, request.options.search_space_residues);
  put_u64(out, request.bank_prefix.size());
  put_bytes(out, request.bank_prefix.data(), request.bank_prefix.size());
  put_u64(out, request.query_fasta.size());
  put_bytes(out, request.query_fasta.data(), request.query_fasta.size());
  return out;
}

SearchRequestFrame decode_search_request(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("search request version");
  if (version != kSearchRequestCodecVersion) {
    throw core::CodecError("codec: unsupported search request version " +
                           std::to_string(version));
  }
  const std::uint32_t flags = reader.u32("search request flags");
  SearchRequestFrame request;
  request.options.with_traceback = (flags & kFlagWithTraceback) != 0;
  request.options.composition_based_stats =
      (flags & kFlagCompositionStats) != 0;
  request.options.e_value_cutoff = reader.f64("search request e-value");
  request.options.search_space_residues =
      reader.f64("search request search space");
  const std::uint64_t prefix_bytes = reader.u64("bank prefix length");
  const auto prefix = reader.bytes(prefix_bytes, "bank prefix");
  request.bank_prefix.assign(reinterpret_cast<const char*>(prefix.data()),
                             prefix.size());
  const std::uint64_t fasta_bytes = reader.u64("query FASTA length");
  const auto fasta = reader.bytes(fasta_bytes, "query FASTA");
  request.query_fasta.assign(reinterpret_cast<const char*>(fasta.data()),
                             fasta.size());
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after search request");
  }
  return request;
}

std::vector<std::uint8_t> encode_hello(const HelloFrame& hello) {
  std::vector<std::uint8_t> out;
  put_u32(out, kHelloCodecVersion);
  put_u32(out, static_cast<std::uint32_t>(hello.tenant.size()));
  put_bytes(out, hello.tenant.data(), hello.tenant.size());
  return out;
}

HelloFrame decode_hello(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("hello version");
  if (version != kHelloCodecVersion) {
    throw core::CodecError("codec: unsupported hello version " +
                           std::to_string(version));
  }
  HelloFrame hello;
  const std::uint32_t tenant_len = reader.u32("hello tenant length");
  const auto tenant = reader.bytes(tenant_len, "hello tenant");
  hello.tenant.assign(reinterpret_cast<const char*>(tenant.data()),
                      tenant.size());
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after hello");
  }
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& ack) {
  std::vector<std::uint8_t> out;
  put_u32(out, kHelloCodecVersion);
  put_u32(out, static_cast<std::uint32_t>(ack.tenant.size()));
  put_bytes(out, ack.tenant.data(), ack.tenant.size());
  return out;
}

HelloAckFrame decode_hello_ack(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("hello ack version");
  if (version != kHelloCodecVersion) {
    throw core::CodecError("codec: unsupported hello ack version " +
                           std::to_string(version));
  }
  HelloAckFrame ack;
  const std::uint32_t tenant_len = reader.u32("hello ack tenant length");
  const auto tenant = reader.bytes(tenant_len, "hello ack tenant");
  ack.tenant.assign(reinterpret_cast<const char*>(tenant.data()),
                    tenant.size());
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after hello ack");
  }
  return ack;
}

std::vector<std::uint8_t> encode_refresh_manifest(
    const RefreshManifestFrame& refresh) {
  std::vector<std::uint8_t> out;
  put_u32(out, kRefreshCodecVersion);
  put_u32(out, static_cast<std::uint32_t>(refresh.bank_prefix.size()));
  put_bytes(out, refresh.bank_prefix.data(), refresh.bank_prefix.size());
  return out;
}

RefreshManifestFrame decode_refresh_manifest(
    std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("refresh version");
  if (version != kRefreshCodecVersion) {
    throw core::CodecError("codec: unsupported refresh version " +
                           std::to_string(version));
  }
  const std::uint32_t prefix_len = reader.u32("refresh bank prefix length");
  const auto prefix = reader.bytes(prefix_len, "refresh bank prefix");
  RefreshManifestFrame refresh;
  refresh.bank_prefix.assign(reinterpret_cast<const char*>(prefix.data()),
                             prefix.size());
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after refresh");
  }
  return refresh;
}

std::vector<std::uint8_t> encode_refresh_ack(const RefreshAckFrame& ack) {
  std::vector<std::uint8_t> out;
  put_u32(out, kRefreshCodecVersion);
  put_u64(out, ack.revision);
  return out;
}

RefreshAckFrame decode_refresh_ack(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("refresh ack version");
  if (version != kRefreshCodecVersion) {
    throw core::CodecError("codec: unsupported refresh ack version " +
                           std::to_string(version));
  }
  RefreshAckFrame ack;
  ack.revision = reader.u64("refresh ack revision");
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after refresh ack");
  }
  return ack;
}

void FrameReader::feed(std::span<const std::uint8_t> data) {
  // Compact once the consumed prefix dominates, so long-lived
  // connections do not grow the buffer without bound.
  if (cursor_ > 0 && cursor_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameReader::next() {
  const std::size_t available = buffer_.size() - cursor_;
  if (available < sizeof(FrameHeader)) return std::nullopt;

  FrameHeader header;
  std::memcpy(&header, buffer_.data() + cursor_, sizeof(header));
  if (header.magic != kWireMagic) {
    throw WireError(WireErrorCode::kBadFrame, "frame magic mismatch");
  }
  if (header.version != kWireVersion) {
    throw WireError(WireErrorCode::kBadFrame,
                    "unsupported protocol version " +
                        std::to_string(header.version));
  }
  if (header.payload_bytes > max_payload_) {
    throw WireError(WireErrorCode::kPayloadTooLarge,
                    "declared payload of " +
                        std::to_string(header.payload_bytes) +
                        " bytes exceeds limit of " +
                        std::to_string(max_payload_));
  }
  if (available - sizeof(FrameHeader) < header.payload_bytes) {
    return std::nullopt;
  }

  Frame frame;
  frame.type = header.type;
  const std::uint8_t* begin = buffer_.data() + cursor_ + sizeof(FrameHeader);
  frame.payload.assign(
      begin, begin + static_cast<std::size_t>(header.payload_bytes));
  cursor_ += sizeof(FrameHeader) +
             static_cast<std::size_t>(header.payload_bytes);
  if (cursor_ == buffer_.size()) {
    buffer_.clear();
    cursor_ = 0;
  }
  return frame;
}

}  // namespace psc::net
