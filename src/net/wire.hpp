// The network front-end's wire format: a length-prefixed binary line
// protocol. Every message is one frame -- a fixed 16-byte little-endian
// header (magic, protocol version, message type, payload length)
// followed by the payload bytes. The payloads themselves reuse the
// service codecs (service/api.hpp, core/result_codec.hpp), so a remote
// SearchResult is byte-identical to a locally encoded one.
//
//   frame header:  u32 magic "PSCN" | u16 version | u16 type | u64 length
//
//   type  direction          payload
//   ----  -----------------  -------------------------------------------
//   Ping      client->server  (empty)
//   Pong      server->client  (empty)
//   Search    client->server  search request (encode_search_request)
//   SearchResult  s->c        QueryResult (service::encode_query_result)
//   Stats     client->server  (empty)
//   StatsResult   s->c        ServiceStats keyed list (encode_service_stats)
//   Hello     client->server  tenant identity (encode_hello)
//   HelloAck      s->c        tenant billed (encode_hello_ack)
//   RefreshManifest c->s      bank prefix (encode_refresh_manifest)
//   RefreshAck    s->c        u64 revision now served (encode_refresh_ack)
//   Error     server->client  u32 code | u32 message length | message
//
// Errors at the wire boundary are *frames*, not exceptions: anything the
// peer can mis-send maps to a WireErrorCode, and the FrameReader rejects
// malformed streams (bad magic, version skew, oversized lengths) with a
// typed WireError before a single payload byte is trusted -- the same
// discipline as the hardened store readers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/api.hpp"

namespace psc::net {

/// Protocol version; bump on any frame or payload layout change. Both
/// ends reject other versions rather than guessing. v2: the hello and
/// hello-ack carry the tenant alone, and the stats reply is the keyed
/// list of service::encode_service_stats.
inline constexpr std::uint16_t kWireVersion = 2;

/// "PSCN" as a little-endian u32; asymmetric so a byte-swapped peer
/// fails the magic check instead of misparsing lengths.
inline constexpr std::uint32_t kWireMagic = 0x4e435350u;

/// Search-request payload version (inside the Search frame). v2 carries
/// the E-value search-space override (QueryOptions::search_space_residues)
/// a router sets on per-shard requests; decode accepts v2 only.
inline constexpr std::uint32_t kSearchRequestCodecVersion = 2;

enum class MessageType : std::uint16_t {
  kPing = 1,
  kPong = 2,
  kSearch = 3,
  kSearchResult = 4,
  /// Stats request. Its payload is empty; any payload is refused as
  /// kBadRequest and the connection stays usable. The reply is one
  /// layout for every client (service::encode_service_stats).
  kStats = 5,
  kStatsResult = 6,
  kError = 7,
  /// Session handshake (optional, at most once, before any effect it
  /// should govern): tenant identity (HelloFrame). The server replies
  /// kHelloAck with the accepted tenant. Connections that never say
  /// hello are billed to the `default` tenant.
  kHello = 8,
  kHelloAck = 9,
  /// Live-ingest adoption (store format v3): ask the backend to re-read
  /// `bank_prefix`'s manifest and serve its current revision
  /// (RefreshManifestFrame). The server replies kRefreshAck carrying the
  /// revision now being served; failures are Error frames
  /// (kBankNotFound / kCorruptStore / kRevisionMismatch).
  kRefreshManifest = 10,
  kRefreshAck = 11,
};

/// What went wrong, for clients that branch on failure kind. Carried in
/// the Error frame payload and thrown client-side as WireError.
enum class WireErrorCode : std::uint32_t {
  kBadFrame = 1,         ///< malformed header: magic/version/unexpected type
  kPayloadTooLarge = 2,  ///< declared length exceeds the peer's limit
  kBadRequest = 3,       ///< payload did not decode (codec/FASTA failure)
  kBankNotFound = 4,     ///< no such bank prefix under the server's root
  kCorruptStore = 5,     ///< the bank exists but its store files are bad
  kTooManyInFlight = 6,  ///< per-connection in-flight request cap hit
  kShutdown = 7,         ///< server is stopping
  kInternal = 8,         ///< unexpected server-side failure
  kTimeout = 9,          ///< peer stalled mid-frame past the read timeout
  kShardUnavailable = 10,  ///< router: a needed shard has no live replica
  kUnreachable = 11,       ///< client: connect/socket-level failure
  /// The request's tenant is over one of its quotas (queries/sec,
  /// in-flight, resident-bank bytes). Retryable after backoff; the
  /// connection stays usable.
  kQuotaExceeded = 12,
  /// Refused by an admission gate (e.g. the router's cluster-wide
  /// active-fanout cap) rather than a per-tenant quota.
  kAdmissionRejected = 13,
  /// A manifest refresh was rejected: the on-disk manifest is not a
  /// strict extension of the revision currently being served (revision
  /// went backwards, or an existing shard slot changed). The serving
  /// generation is untouched; rebuild-and-restart is the recovery path.
  kRevisionMismatch = 14,
};

/// Human-readable code name ("bad-frame", "bank-not-found", ...).
std::string wire_error_code_name(WireErrorCode code);

class WireError : public std::runtime_error {
 public:
  WireError(WireErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  WireErrorCode code() const noexcept { return code_; }

 private:
  WireErrorCode code_;
};

/// The fixed frame prefix. Exactly 16 bytes on the wire.
struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 16, "frame header must stay 16 bytes");

/// One complete decoded frame. `type` is the raw wire value: the
/// dispatcher decides what an unknown type means (the reader stays in
/// sync either way, since the length was valid).
struct Frame {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Frames a payload for the wire.
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_frame(MessageType type);  ///< empty payload

/// Frames a typed error.
std::vector<std::uint8_t> encode_error_frame(WireErrorCode code,
                                             const std::string& message);

/// Decodes an Error frame payload back into (code, message). Throws
/// core::CodecError if the payload itself is malformed.
WireError decode_error_payload(std::span<const std::uint8_t> payload);

/// The Search frame payload: bank prefix + per-query options + the query
/// bank as FASTA text (parsed server-side with the same reader local
/// tools use, so both paths see the identical bank).
struct SearchRequestFrame {
  std::string bank_prefix;
  service::QueryOptions options;
  std::string query_fasta;
};

std::vector<std::uint8_t> encode_search_request(
    const SearchRequestFrame& request);
/// Throws core::CodecError on truncation/version skew/trailing bytes.
SearchRequestFrame decode_search_request(std::span<const std::uint8_t> data);

/// Hello payload version (inside the kHello/kHelloAck frames).
inline constexpr std::uint32_t kHelloCodecVersion = 1;

/// The kHello payload: who this connection is. Sent at most once per
/// connection; the server rejects a replayed hello (kBadRequest)
/// because requests already admitted under the first identity cannot be
/// re-billed.
struct HelloFrame {
  /// Tenant name ([A-Za-z0-9._-]{1,64}); names the server has no
  /// explicit policy for are accepted under the default policy --
  /// identity is accounting, not auth.
  std::string tenant;
};

/// The kHelloAck payload: the identity the server billed the
/// connection to.
struct HelloAckFrame {
  std::string tenant;
};

std::vector<std::uint8_t> encode_hello(const HelloFrame& hello);
HelloFrame decode_hello(std::span<const std::uint8_t> data);
std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& ack);
HelloAckFrame decode_hello_ack(std::span<const std::uint8_t> data);

/// Refresh payload version (inside the kRefreshManifest frame).
inline constexpr std::uint32_t kRefreshCodecVersion = 1;

/// The kRefreshManifest payload: which bank prefix to re-read. Subject
/// to the same prefix-safety and allowlist gates as a Search frame's
/// prefix -- a client cannot refresh a bank it could not query.
struct RefreshManifestFrame {
  std::string bank_prefix;
};

/// The kRefreshAck payload: the manifest revision now being served for
/// the requested prefix (0 for a plain unsharded pair or a v2 manifest).
struct RefreshAckFrame {
  std::uint64_t revision = 0;
};

std::vector<std::uint8_t> encode_refresh_manifest(
    const RefreshManifestFrame& refresh);
RefreshManifestFrame decode_refresh_manifest(
    std::span<const std::uint8_t> data);
std::vector<std::uint8_t> encode_refresh_ack(const RefreshAckFrame& ack);
RefreshAckFrame decode_refresh_ack(std::span<const std::uint8_t> data);

/// Incremental frame assembly shared by both ends of a connection: feed
/// raw bytes as they arrive, pop complete frames. Header validation
/// happens the moment 16 bytes are buffered, so a hostile length field
/// is rejected (WireError) before any buffering is done for it.
class FrameReader {
 public:
  /// `max_payload_bytes` is this peer's receive limit; a declared length
  /// beyond it raises kPayloadTooLarge.
  explicit FrameReader(std::uint64_t max_payload_bytes)
      : max_payload_(max_payload_bytes) {}

  void feed(std::span<const std::uint8_t> data);

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed. Throws WireError (kBadFrame / kPayloadTooLarge) when the
  /// buffered bytes cannot be a valid frame sequence; the connection
  /// cannot be resynchronized after that and must be closed.
  std::optional<Frame> next();

  /// True when a frame has started arriving but is not complete -- the
  /// condition the server's read timeout watches.
  bool mid_frame() const { return buffer_.size() > cursor_; }

 private:
  std::uint64_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t cursor_ = 0;  ///< consumed prefix of buffer_
};

}  // namespace psc::net
