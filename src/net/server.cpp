#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <list>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "bio/fasta.hpp"
#include "service/tenant.hpp"
#include "store/format.hpp"

namespace psc::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// A request prefix may name a bank in a subdirectory of the root but
/// never escape it: no absolute paths, no "."/".." components, no
/// NUL/backslash trickery.
bool prefix_is_safe(const std::string& prefix) {
  if (prefix.empty() || prefix.size() > 4096) return false;
  if (prefix.front() == '/') return false;
  if (prefix.find('\\') != std::string::npos) return false;
  if (prefix.find('\0') != std::string::npos) return false;
  std::size_t start = 0;
  while (start <= prefix.size()) {
    const std::size_t slash = prefix.find('/', start);
    const std::size_t end = slash == std::string::npos ? prefix.size() : slash;
    const std::string_view component(prefix.data() + start, end - start);
    if (component.empty() || component == "." || component == "..") {
      return false;
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return true;
}

/// A per-tenant quota rejection maps to its own typed frame so clients
/// can distinguish "back off" (kQuotaExceeded, per-tenant) from
/// "refused by an admission gate" (kAdmissionRejected, cluster-level).
WireErrorCode quota_error_code(const service::QuotaError& error) {
  return error.kind() == service::QuotaKind::kAdmission
             ? WireErrorCode::kAdmissionRejected
             : WireErrorCode::kQuotaExceeded;
}

}  // namespace

/// Per-connection state. Responses (immediate Pong/Stats/Error frames
/// and deferred Search futures alike) pass through one ordered queue, so
/// a pipelining client can pair replies with requests by position.
struct Server::Connection {
  struct Pending {
    bool immediate = false;
    std::vector<std::uint8_t> frame;                ///< when immediate
    std::future<service::ServiceResponse> future;   ///< when deferred
  };

  explicit Connection(int socket_fd, std::uint64_t max_payload)
      : fd(socket_fd), reader(max_payload) {}

  int fd = -1;
  FrameReader reader;
  std::deque<Pending> pending;
  std::size_t deferred = 0;  ///< pending entries backed by a future
  std::vector<std::uint8_t> out;
  std::size_t out_cursor = 0;
  bool closing = false;  ///< flush remaining output, then close
  bool deadline_armed = false;
  Clock::time_point deadline{};

  // Session identity, set once by the kHello handshake. Hello-less
  // connections are billed to the default tenant.
  std::string tenant = service::kDefaultTenantName;
  bool hello_seen = false;
};

Server::Server(service::SearchBackend& backend, ServerConfig config)
    : backend_(&backend), config_(std::move(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(EINVAL, std::generic_category(),
                            "bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(saved, std::generic_category(), "bind/listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  if (::pipe(wake_fds_) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(saved, std::generic_category(), "pipe");
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);

  stop_.store(false);
  poll_wakeups_.store(0);
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void Server::stop() {
  if (!started_) return;
  stop_.store(true);
  // Wake a loop blocked in poll with nothing pending; without this the
  // join would wait for traffic that may never come.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  started_ = false;
}

void Server::append_frame(Connection& connection,
                          std::vector<std::uint8_t> frame) {
  connection.out.insert(connection.out.end(), frame.begin(), frame.end());
}

void Server::handle_frame(Connection& connection, const Frame& frame) {
  Connection::Pending pending;
  pending.immediate = true;

  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kPing:
      pending.frame = encode_frame(MessageType::kPong);
      break;

    case MessageType::kHello: {
      // At most one hello per connection, and it must be well-formed:
      // requests already admitted under the first identity cannot be
      // re-billed, so a replay is rejected (connection stays usable,
      // identity stays what it was).
      if (connection.hello_seen) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            "hello already negotiated for this connection");
        break;
      }
      HelloFrame hello;
      try {
        hello = decode_hello(frame.payload);
      } catch (const core::CodecError& e) {
        pending.frame =
            encode_error_frame(WireErrorCode::kBadRequest, e.what());
        break;
      }
      if (!hello.tenant.empty() &&
          !service::tenant_name_is_valid(hello.tenant)) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            "tenant name must be 1..64 chars of [A-Za-z0-9._-]");
        break;
      }
      // Unknown names are accepted under the default policy: identity
      // is accounting and fairness, not auth.
      connection.tenant = service::normalize_tenant_name(hello.tenant);
      connection.hello_seen = true;
      HelloAckFrame ack;
      ack.tenant = connection.tenant;
      pending.frame =
          encode_frame(MessageType::kHelloAck, encode_hello_ack(ack));
      break;
    }

    case MessageType::kStats: {
      if (!frame.payload.empty()) {
        pending.frame = encode_error_frame(WireErrorCode::kBadRequest,
                                           "a Stats request has no payload");
        break;
      }
      pending.frame = encode_frame(
          MessageType::kStatsResult,
          service::encode_service_stats(backend_->stats_snapshot()));
      break;
    }

    case MessageType::kSearch: {
      if (connection.deferred >= config_.max_in_flight) {
        pending.frame = encode_error_frame(
            WireErrorCode::kTooManyInFlight,
            "connection already has " + std::to_string(connection.deferred) +
                " request(s) in flight");
        break;
      }
      SearchRequestFrame request;
      try {
        request = decode_search_request(frame.payload);
      } catch (const core::CodecError& e) {
        pending.frame =
            encode_error_frame(WireErrorCode::kBadRequest, e.what());
        break;
      }
      if (!prefix_is_safe(request.bank_prefix)) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            "bank prefix must be a relative path without '..' components");
        break;
      }
      if (!config_.allowed_prefixes.empty() &&
          std::find(config_.allowed_prefixes.begin(),
                    config_.allowed_prefixes.end(),
                    request.bank_prefix) == config_.allowed_prefixes.end()) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBankNotFound,
            "bank prefix not served here: " + request.bank_prefix);
        break;
      }
      if (!std::isfinite(request.options.search_space_residues) ||
          request.options.search_space_residues < 0.0) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            "search space override must be finite and non-negative");
        break;
      }
      service::ServiceRequest submission;
      submission.bank_prefix =
          config_.bank_root + "/" + request.bank_prefix;
      submission.options = request.options;
      submission.tenant.name = connection.tenant;
      try {
        std::istringstream fasta(request.query_fasta);
        submission.query =
            bio::read_fasta(fasta, bio::SequenceKind::kProtein);
      } catch (const std::exception& e) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            std::string("query FASTA did not parse: ") + e.what());
        break;
      }
      if (submission.query.empty()) {
        pending.frame = encode_error_frame(WireErrorCode::kBadRequest,
                                           "query FASTA holds no sequences");
        break;
      }
      try {
        pending.future = backend_->submit_search(std::move(submission));
        pending.immediate = false;
        ++connection.deferred;
      } catch (const service::QuotaError& e) {
        // Over-quota is a typed rejection on an intact connection --
        // never silence, never a hang, never a teardown.
        pending.frame = encode_error_frame(quota_error_code(e), e.what());
      } catch (const std::exception&) {
        pending.frame = encode_error_frame(WireErrorCode::kShutdown,
                                           "service is stopping");
      }
      break;
    }

    case MessageType::kRefreshManifest: {
      // Same prefix gates as a Search frame: a client cannot refresh a
      // bank it could not query. The refresh itself is synchronous --
      // revision adoption is a map update, not pipeline work.
      RefreshManifestFrame request;
      try {
        request = decode_refresh_manifest(frame.payload);
      } catch (const core::CodecError& e) {
        pending.frame =
            encode_error_frame(WireErrorCode::kBadRequest, e.what());
        break;
      }
      if (!prefix_is_safe(request.bank_prefix)) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBadRequest,
            "bank prefix must be a relative path without '..' components");
        break;
      }
      if (!config_.allowed_prefixes.empty() &&
          std::find(config_.allowed_prefixes.begin(),
                    config_.allowed_prefixes.end(),
                    request.bank_prefix) == config_.allowed_prefixes.end()) {
        pending.frame = encode_error_frame(
            WireErrorCode::kBankNotFound,
            "bank prefix not served here: " + request.bank_prefix);
        break;
      }
      try {
        RefreshAckFrame ack;
        ack.revision = backend_->refresh_manifest(config_.bank_root + "/" +
                                                  request.bank_prefix);
        pending.frame =
            encode_frame(MessageType::kRefreshAck, encode_refresh_ack(ack));
      } catch (const store::StoreError& e) {
        pending.frame =
            encode_error_frame(e.code() == store::StoreErrorCode::kIo
                                   ? WireErrorCode::kBankNotFound
                                   : WireErrorCode::kCorruptStore,
                               e.what());
      } catch (const WireError& e) {
        // A router backend rejects non-extending revisions with a typed
        // kRevisionMismatch; forward its verdict.
        pending.frame = encode_error_frame(e.code(), e.what());
      } catch (const std::exception& e) {
        pending.frame = encode_error_frame(WireErrorCode::kInternal, e.what());
      }
      break;
    }

    default:
      // The length was valid, so the stream is still in sync; answer
      // with a typed error and keep the connection.
      pending.frame = encode_error_frame(
          WireErrorCode::kBadFrame,
          "unexpected message type " + std::to_string(frame.type));
      break;
  }

  connection.pending.push_back(std::move(pending));
}

bool Server::drain_ready(Connection& connection) {
  bool appended = false;
  while (!connection.pending.empty()) {
    Connection::Pending& front = connection.pending.front();
    if (front.immediate) {
      append_frame(connection, std::move(front.frame));
      connection.pending.pop_front();
      appended = true;
      continue;
    }
    if (front.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      break;  // responses stay in request order; later ones wait
    }
    std::vector<std::uint8_t> frame;
    try {
      const service::ServiceResponse response = front.future.get();
      frame = encode_frame(MessageType::kSearchResult,
                           service::encode_query_result(response));
    } catch (const store::StoreError& e) {
      frame = encode_error_frame(e.code() == store::StoreErrorCode::kIo
                                     ? WireErrorCode::kBankNotFound
                                     : WireErrorCode::kCorruptStore,
                                 e.what());
    } catch (const WireError& e) {
      // A cluster backend fails futures with typed wire errors (e.g.
      // kShardUnavailable when no live replica covers a shard); forward
      // the code so the client sees the router's verdict, not kInternal.
      frame = encode_error_frame(e.code(), e.what());
    } catch (const service::QuotaError& e) {
      // A backend that defers admission (the router's fan-out thread)
      // may fail the future with a QuotaError; keep it typed.
      frame = encode_error_frame(quota_error_code(e), e.what());
    } catch (const std::exception& e) {
      frame = encode_error_frame(WireErrorCode::kInternal, e.what());
    }
    append_frame(connection, std::move(frame));
    --connection.deferred;
    connection.pending.pop_front();
    appended = true;
  }
  return appended;
}

bool Server::flush(Connection& connection) {
  while (connection.out_cursor < connection.out.size()) {
    const ssize_t n = ::send(
        connection.fd, connection.out.data() + connection.out_cursor,
        connection.out.size() - connection.out_cursor, MSG_NOSIGNAL);
    if (n > 0) {
      connection.out_cursor += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer vanished; caller closes
  }
  connection.out.clear();
  connection.out_cursor = 0;
  return true;
}

void Server::loop() {
  std::list<Connection> connections;
  std::vector<pollfd> fds;

  while (!stop_.load()) {
    fds.clear();
    pollfd listener{};
    listener.fd = listen_fd_;
    listener.events =
        connections.size() < config_.max_connections ? POLLIN : 0;
    fds.push_back(listener);
    for (const Connection& connection : connections) {
      pollfd entry{};
      entry.fd = connection.fd;
      entry.events = static_cast<short>(
          (connection.closing ? 0 : POLLIN) |
          (connection.out_cursor < connection.out.size() ? POLLOUT : 0));
      fds.push_back(entry);
    }
    pollfd waker{};
    waker.fd = wake_fds_[0];
    waker.events = POLLIN;
    fds.push_back(waker);

    // The timeout comes from what the loop is actually waiting on.
    // Deferred search futures are fulfilled on the service's worker
    // thread with no fd to poll, so while any are outstanding a short
    // tick doubles as their completion poll. Otherwise the only timed
    // event is the nearest mid-frame read deadline; with none armed the
    // loop blocks indefinitely (stop() wakes it through the self-pipe)
    // instead of spinning 100x/s while idle.
    int timeout_ms = -1;
    bool any_deferred = false;
    bool have_deadline = false;
    Clock::time_point nearest{};
    for (const Connection& connection : connections) {
      if (connection.deferred > 0) any_deferred = true;
      if (connection.deadline_armed &&
          (!have_deadline || connection.deadline < nearest)) {
        have_deadline = true;
        nearest = connection.deadline;
      }
    }
    if (any_deferred) {
      timeout_ms = 10;
    } else if (have_deadline) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          nearest - Clock::now());
      const long long ms = wait.count();
      timeout_ms = ms <= 0 ? 0
                           : static_cast<int>(std::min<long long>(
                                 ms, std::numeric_limits<int>::max()));
    }

    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    poll_wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (rc < 0 && errno != EINTR) break;
    if (stop_.load()) break;
    if ((fds.back().revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }

    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) break;
        if (connections.size() >= config_.max_connections) {
          ::close(client);
          continue;
        }
        set_nonblocking(client);
        const int enable = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &enable,
                     sizeof(enable));
        connections.emplace_back(client, config_.max_payload_bytes);
      }
    }

    std::size_t index = 1;
    for (auto it = connections.begin(); it != connections.end(); ++index) {
      Connection& connection = *it;
      const short revents = index < fds.size() ? fds[index].revents : 0;
      bool dead = (revents & (POLLERR | POLLNVAL)) != 0;

      if (!dead && !connection.closing &&
          (revents & (POLLIN | POLLHUP)) != 0) {
        std::uint8_t buffer[64 * 1024];
        for (;;) {
          const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
          if (n > 0) {
            connection.reader.feed({buffer, static_cast<std::size_t>(n)});
            continue;
          }
          if (n == 0) {
            // Mid-stream disconnect (possibly mid-frame): a clean close,
            // never an exception. Unanswered futures are abandoned; the
            // service finishes the work and discards the results.
            dead = true;
          } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            dead = true;
          }
          break;
        }
        if (!dead) {
          try {
            while (auto frame = connection.reader.next()) {
              handle_frame(connection, *frame);
            }
          } catch (const WireError& e) {
            // Unsynchronizable stream (bad magic/version, hostile
            // length): one typed error frame, then close.
            Connection::Pending error;
            error.immediate = true;
            error.frame = encode_error_frame(e.code(), e.what());
            connection.pending.push_back(std::move(error));
            connection.closing = true;
          }
        }
      }

      if (!dead && !connection.closing) {
        if (connection.reader.mid_frame()) {
          const auto now = Clock::now();
          if (!connection.deadline_armed) {
            connection.deadline_armed = true;
            connection.deadline =
                now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              config_.read_timeout_seconds));
          } else if (now >= connection.deadline) {
            Connection::Pending error;
            error.immediate = true;
            error.frame = encode_error_frame(
                WireErrorCode::kTimeout,
                "peer stalled mid-frame past the read timeout");
            connection.pending.push_back(std::move(error));
            connection.closing = true;
          }
        } else {
          connection.deadline_armed = false;
        }
      }

      if (!dead) {
        drain_ready(connection);
        if (!flush(connection)) dead = true;
      }
      if (!dead && connection.closing &&
          connection.out_cursor >= connection.out.size()) {
        dead = true;  // error/timeout frame delivered; close for real
      }

      if (dead) {
        ::close(connection.fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }

  for (Connection& connection : connections) ::close(connection.fd);
}

}  // namespace psc::net
