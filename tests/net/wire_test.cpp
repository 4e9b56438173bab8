#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

namespace psc::net {
namespace {

std::vector<std::uint8_t> header_bytes(std::uint32_t magic,
                                       std::uint16_t version,
                                       std::uint16_t type,
                                       std::uint64_t payload_bytes) {
  FrameHeader header;
  header.magic = magic;
  header.version = version;
  header.type = type;
  header.payload_bytes = payload_bytes;
  std::vector<std::uint8_t> bytes(sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

TEST(Wire, FrameRoundTripsThroughReader) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      encode_frame(MessageType::kSearch, payload);
  EXPECT_EQ(bytes.size(), sizeof(FrameHeader) + payload.size());

  FrameReader reader(1 << 20);
  reader.feed(bytes);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint16_t>(MessageType::kSearch));
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.mid_frame());
}

TEST(Wire, ReaderAssemblesByteAtATime) {
  const std::vector<std::uint8_t> payload(37, 0xab);
  std::vector<std::uint8_t> stream =
      encode_frame(MessageType::kSearchResult, payload);
  const std::vector<std::uint8_t> pong = encode_frame(MessageType::kPong);
  stream.insert(stream.end(), pong.begin(), pong.end());

  FrameReader reader(1 << 20);
  std::vector<Frame> frames;
  const std::size_t boundary = sizeof(FrameHeader) + payload.size();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed({stream.data() + i, 1});
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
    // Mid-frame exactly when bytes are buffered but incomplete -- false
    // at the boundary between the two frames.
    const std::size_t fed = i + 1;
    EXPECT_EQ(reader.mid_frame(), fed != boundary && fed != stream.size())
        << "fed=" << fed;
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_EQ(frames[1].type, static_cast<std::uint16_t>(MessageType::kPong));
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(Wire, TruncatedHeaderIsJustIncomplete) {
  // 15 of the 16 header bytes: not an error, only an unfinished frame --
  // the server's read timeout is what handles a peer that stops here.
  const std::vector<std::uint8_t> bytes = encode_frame(MessageType::kPing);
  FrameReader reader(1 << 20);
  reader.feed({bytes.data(), sizeof(FrameHeader) - 1});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.mid_frame());
}

TEST(Wire, WrongMagicThrows) {
  FrameReader reader(1 << 20);
  reader.feed(header_bytes(0x12345678u, kWireVersion, 1, 0));
  try {
    reader.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kBadFrame);
  }
}

TEST(Wire, WrongVersionThrows) {
  FrameReader reader(1 << 20);
  reader.feed(header_bytes(kWireMagic, kWireVersion + 1, 1, 0));
  try {
    reader.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kBadFrame);
  }
}

TEST(Wire, OversizedPayloadLengthThrowsBeforeBuffering) {
  FrameReader reader(/*max_payload_bytes=*/1024);
  // Declares 2^60 bytes; must throw on the header alone, well before any
  // payload arrives or is allocated.
  reader.feed(header_bytes(kWireMagic, kWireVersion, 3,
                           std::uint64_t{1} << 60));
  try {
    reader.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kPayloadTooLarge);
  }
}

TEST(Wire, PayloadAtTheLimitIsAccepted) {
  FrameReader reader(/*max_payload_bytes=*/8);
  const std::vector<std::uint8_t> payload(8, 0x11);
  reader.feed(encode_frame(MessageType::kSearch, payload));
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 8u);
}

TEST(Wire, ErrorFrameRoundTrips) {
  const std::vector<std::uint8_t> bytes =
      encode_error_frame(WireErrorCode::kBankNotFound, "no bank 'x'");
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, static_cast<std::uint16_t>(MessageType::kError));
  const WireError error = decode_error_payload(frame->payload);
  EXPECT_EQ(error.code(), WireErrorCode::kBankNotFound);
  EXPECT_STREQ(error.what(), "no bank 'x'");
  EXPECT_EQ(wire_error_code_name(error.code()), "bank-not-found");
}

TEST(Wire, MalformedErrorPayloadThrowsCodecError) {
  std::vector<std::uint8_t> good =
      encode_error_frame(WireErrorCode::kInternal, "boom");
  const std::span<const std::uint8_t> payload(
      good.data() + sizeof(FrameHeader), good.size() - sizeof(FrameHeader));

  // Truncations.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(decode_error_payload(payload.subspan(0, cut)),
                 core::CodecError);
  }
  // Out-of-range code.
  std::vector<std::uint8_t> bad(payload.begin(), payload.end());
  bad[0] = 0xee;
  EXPECT_THROW(decode_error_payload(bad), core::CodecError);
  // Trailing bytes.
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_THROW(decode_error_payload(padded), core::CodecError);
}

TEST(Wire, SearchRequestRoundTrips) {
  SearchRequestFrame request;
  request.bank_prefix = "store/nr";
  request.query_fasta = ">q1\nMKV\n>q2\nACDEFGH\n";
  request.options.e_value_cutoff = 0.75;
  request.options.with_traceback = true;
  request.options.composition_based_stats = true;

  const std::vector<std::uint8_t> bytes = encode_search_request(request);
  const SearchRequestFrame decoded = decode_search_request(bytes);
  EXPECT_EQ(decoded.bank_prefix, request.bank_prefix);
  EXPECT_EQ(decoded.query_fasta, request.query_fasta);
  EXPECT_DOUBLE_EQ(decoded.options.e_value_cutoff, 0.75);
  EXPECT_TRUE(decoded.options.with_traceback);
  EXPECT_TRUE(decoded.options.composition_based_stats);
  EXPECT_EQ(decoded.options.fingerprint(), request.options.fingerprint());
}

TEST(Wire, MalformedSearchRequestThrowsCodecError) {
  SearchRequestFrame request;
  request.bank_prefix = "bank";
  request.query_fasta = ">q\nMKV\n";
  const std::vector<std::uint8_t> bytes = encode_search_request(request);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_search_request(prefix), core::CodecError)
        << "cut=" << cut;
  }
  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0x7f;  // version
  EXPECT_THROW(decode_search_request(skewed), core::CodecError);
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_search_request(padded), core::CodecError);

  // The v1 layout (no search-space override after the E-value) is no
  // longer accepted.
  std::vector<std::uint8_t> v1 = bytes;
  v1[0] = 1;
  v1.erase(v1.begin() + 16, v1.begin() + 24);
  EXPECT_THROW(decode_search_request(v1), core::CodecError);
}

TEST(Wire, QuotaErrorCodesRoundTripWithNames) {
  // The tenancy codes must survive the full encode/decode path: an
  // older decode bound would throw CodecError and the client would
  // report kBadFrame instead of the actual rejection.
  const std::pair<WireErrorCode, const char*> cases[] = {
      {WireErrorCode::kQuotaExceeded, "quota-exceeded"},
      {WireErrorCode::kAdmissionRejected, "admission-rejected"},
  };
  for (const auto& [code, name] : cases) {
    const std::vector<std::uint8_t> bytes =
        encode_error_frame(code, "over the line");
    FrameReader reader(1 << 20);
    reader.feed(bytes);
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    const WireError error = decode_error_payload(frame->payload);
    EXPECT_EQ(error.code(), code);
    EXPECT_EQ(wire_error_code_name(error.code()), name);
  }
}

TEST(Wire, HelloAndAckRoundTrip) {
  HelloFrame hello;
  hello.tenant = "team-alpha.batch_7";
  EXPECT_EQ(decode_hello(encode_hello(hello)).tenant, hello.tenant);

  // The empty tenant travels fine too -- it is the "bill me as default"
  // form, normalized server-side, never a codec error.
  HelloFrame anonymous;
  EXPECT_EQ(decode_hello(encode_hello(anonymous)).tenant, "");

  HelloAckFrame ack;
  ack.tenant = "team-alpha.batch_7";
  EXPECT_EQ(decode_hello_ack(encode_hello_ack(ack)).tenant, ack.tenant);
}

TEST(Wire, MalformedHelloThrowsCodecError) {
  HelloFrame hello;
  hello.tenant = "alice";
  const std::vector<std::uint8_t> bytes = encode_hello(hello);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_hello(prefix), core::CodecError) << "cut=" << cut;
    EXPECT_THROW(decode_hello_ack(prefix), core::CodecError) << "cut=" << cut;
  }
  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0x7f;  // hello codec version
  EXPECT_THROW(decode_hello(skewed), core::CodecError);
  EXPECT_THROW(decode_hello_ack(skewed), core::CodecError);
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_hello(padded), core::CodecError);
}

TEST(Wire, RefreshFramesRoundTrip) {
  RefreshManifestFrame request;
  request.bank_prefix = "banks/nr_2026";
  const RefreshManifestFrame decoded =
      decode_refresh_manifest(encode_refresh_manifest(request));
  EXPECT_EQ(decoded.bank_prefix, request.bank_prefix);

  RefreshAckFrame ack;
  ack.revision = 0x0123456789abcdefull;
  const RefreshAckFrame ack_decoded =
      decode_refresh_ack(encode_refresh_ack(ack));
  EXPECT_EQ(ack_decoded.revision, ack.revision);
}

TEST(Wire, MalformedRefreshFramesThrowCodecError) {
  RefreshManifestFrame request;
  request.bank_prefix = "nr";
  const std::vector<std::uint8_t> bytes = encode_refresh_manifest(request);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_refresh_manifest(prefix), core::CodecError)
        << "cut=" << cut;
  }
  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0x7f;  // refresh codec version
  EXPECT_THROW(decode_refresh_manifest(skewed), core::CodecError);
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_refresh_manifest(padded), core::CodecError);

  RefreshAckFrame ack;
  ack.revision = 2;
  const std::vector<std::uint8_t> ack_bytes = encode_refresh_ack(ack);
  for (std::size_t cut = 0; cut < ack_bytes.size(); ++cut) {
    EXPECT_THROW(
        decode_refresh_ack(std::span(ack_bytes.data(), cut)),
        core::CodecError)
        << "cut=" << cut;
  }
}

TEST(Wire, RevisionMismatchCodeRoundTripsWithName) {
  // The live-ingest rejection must survive the wire like the quota
  // codes do; an older decode bound would turn it into kBadFrame.
  const std::vector<std::uint8_t> bytes =
      encode_error_frame(WireErrorCode::kRevisionMismatch, "not an extension");
  FrameReader reader(1 << 20);
  reader.feed(bytes);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  const WireError error = decode_error_payload(frame->payload);
  EXPECT_EQ(error.code(), WireErrorCode::kRevisionMismatch);
  EXPECT_EQ(wire_error_code_name(error.code()), "revision-mismatch");
}

TEST(Wire, GarbageAfterValidFrameThrowsOnTheGarbage) {
  FrameReader reader(1 << 20);
  std::vector<std::uint8_t> stream = encode_frame(MessageType::kPing);
  const std::vector<std::uint8_t> junk(sizeof(FrameHeader), 0x5a);
  stream.insert(stream.end(), junk.begin(), junk.end());
  reader.feed(stream);
  EXPECT_TRUE(reader.next().has_value());  // the Ping parses fine
  EXPECT_THROW(reader.next(), WireError);  // the junk does not
}

}  // namespace
}  // namespace psc::net
