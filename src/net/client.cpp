#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <system_error>

namespace psc::net {

Client::Client(ClientConfig config)
    : config_(std::move(config)), reader_(config_.max_payload_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw WireError(WireErrorCode::kUnreachable,
                    std::string("socket: ") + std::strerror(errno));
  }

  if (config_.timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (config_.timeout_seconds - std::floor(config_.timeout_seconds)) *
        1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw WireError(WireErrorCode::kUnreachable,
                    "bad host address: " + config_.host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw WireError(WireErrorCode::kUnreachable,
                    "connect to " + config_.host + ":" +
                        std::to_string(config_.port) + ": " +
                        std::strerror(saved));
  }

  if (!config_.tenant.empty()) {
    try {
      hello();
    } catch (...) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw WireError(WireErrorCode::kUnreachable,
                    std::string("send: ") + std::strerror(errno));
  }
}

Frame Client::read_frame() {
  for (;;) {
    if (auto frame = reader_.next()) return std::move(*frame);
    std::uint8_t buffer[64 * 1024];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      reader_.feed({buffer, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      throw WireError(WireErrorCode::kBadFrame,
                      "server closed the connection mid-response");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw WireError(WireErrorCode::kTimeout,
                      "no response within the client timeout");
    }
    throw WireError(WireErrorCode::kUnreachable,
                    std::string("recv: ") + std::strerror(errno));
  }
}

Frame Client::round_trip(const std::vector<std::uint8_t>& request,
                         MessageType expected) {
  send_all(request);
  Frame frame = read_frame();
  if (frame.type == static_cast<std::uint16_t>(MessageType::kError)) {
    try {
      throw decode_error_payload(frame.payload);
    } catch (const core::CodecError& e) {
      // Even a malformed *error* payload surfaces as a typed failure:
      // a caller (the router's retry loop above all) must be able to
      // catch WireError and know it has seen every way a reply can go
      // wrong.
      throw WireError(WireErrorCode::kBadFrame, e.what());
    }
  }
  if (frame.type != static_cast<std::uint16_t>(expected)) {
    throw WireError(WireErrorCode::kBadFrame,
                    "unexpected response type " + std::to_string(frame.type));
  }
  return frame;
}

void Client::ping() {
  const Frame frame =
      round_trip(encode_frame(MessageType::kPing), MessageType::kPong);
  if (!frame.payload.empty()) {
    throw WireError(WireErrorCode::kBadFrame, "Pong carried a payload");
  }
}

HelloAckFrame Client::hello() {
  HelloFrame request;
  request.tenant = config_.tenant;
  const Frame frame =
      round_trip(encode_frame(MessageType::kHello, encode_hello(request)),
                 MessageType::kHelloAck);
  HelloAckFrame ack;
  try {
    ack = decode_hello_ack(frame.payload);
  } catch (const core::CodecError& e) {
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
  return ack;
}

service::ServiceStats Client::stats() {
  const Frame frame = round_trip(encode_frame(MessageType::kStats),
                                 MessageType::kStatsResult);
  try {
    return service::decode_service_stats(frame.payload);
  } catch (const core::CodecError& e) {
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
}

service::QueryResult Client::search(const std::string& bank_prefix,
                                    const std::string& query_fasta,
                                    const service::QueryOptions& options) {
  SearchRequestFrame request;
  request.bank_prefix = bank_prefix;
  request.options = options;
  request.query_fasta = query_fasta;
  const Frame frame =
      round_trip(encode_frame(MessageType::kSearch,
                              encode_search_request(request)),
                 MessageType::kSearchResult);
  try {
    return service::decode_query_result(frame.payload);
  } catch (const core::CodecError& e) {
    // A truncated or corrupt SearchResult payload is a protocol failure
    // like any other: typed, never a stray codec exception.
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
}

std::uint64_t Client::refresh(const std::string& bank_prefix) {
  RefreshManifestFrame request;
  request.bank_prefix = bank_prefix;
  const Frame frame =
      round_trip(encode_frame(MessageType::kRefreshManifest,
                              encode_refresh_manifest(request)),
                 MessageType::kRefreshAck);
  try {
    return decode_refresh_ack(frame.payload).revision;
  } catch (const core::CodecError& e) {
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
}

void Client::shutdown_now() noexcept {
  // shutdown(2), not close(2): the fd stays valid (no reuse race with a
  // thread mid-recv on it) while both directions are torn down, so any
  // blocked send/recv returns immediately.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace psc::net
