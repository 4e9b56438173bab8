// psc::net::Client -- a small blocking client for the psc wire protocol
// (net/wire.hpp). One connection, one request/response at a time; wire
// Error frames come back as thrown WireError, so callers branch on
// WireErrorCode instead of parsing message strings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/api.hpp"

namespace psc::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Receive limit for frames the *server* sends us.
  std::uint64_t max_payload_bytes = 256ull << 20;
  /// Socket-level send/receive timeout; 0 disables (block forever).
  double timeout_seconds = 0.0;
  /// Tenant identity for this connection. Non-empty makes the
  /// constructor send a kHello handshake before anything else, so every
  /// request on the connection is billed to this tenant. Empty skips
  /// the handshake entirely (the server bills the `default` tenant).
  std::string tenant;
};

class Client {
 public:
  /// Connects immediately. Throws WireError(kUnreachable) when the
  /// server is unreachable (connect refused, bad address) -- a *typed*
  /// failure, because a router treats "this replica is down" as routine
  /// and branches on the code.
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips a Ping. Throws on protocol violation or disconnect.
  void ping();

  /// Sends the kHello handshake (the tenant) and returns the server's
  /// ack. Called automatically by the constructor when
  /// ClientConfig::tenant is set; calling it a second time on one
  /// connection is a server-side kBadRequest (thrown as WireError).
  HelloAckFrame hello();

  /// Fetches the service counters snapshot.
  service::ServiceStats stats();

  /// Runs a search: the query travels as FASTA text, the reply is the
  /// same QueryResult an in-process submit() yields. Throws WireError
  /// with the server's code (kBankNotFound, kBadRequest, ...) when the
  /// server answers with an Error frame.
  service::QueryResult search(const std::string& bank_prefix,
                              const std::string& query_fasta,
                              const service::QueryOptions& options = {});

  /// Asks the server to adopt `bank_prefix`'s current on-disk manifest
  /// revision (live ingest: run after psc_index --append publishes a new
  /// generation). Returns the revision now being served. Throws
  /// WireError with the server's code on failure (kBankNotFound,
  /// kCorruptStore, kRevisionMismatch from a router).
  std::uint64_t refresh(const std::string& bank_prefix);

  /// Tears the socket down from *any* thread: a blocked send/recv on
  /// this client wakes immediately and fails with a typed WireError.
  /// This is how a router cancels the losing attempt of a hedged pair
  /// -- the loser's thread is stuck in recv() on its own Client, and
  /// the winner calls shutdown_now() on it. Idempotent; the client is
  /// unusable afterwards.
  void shutdown_now() noexcept;

 private:
  /// Sends `request` and blocks for one frame. An Error frame throws
  /// WireError; a frame of any type other than `expected` throws
  /// WireError(kBadFrame).
  Frame round_trip(const std::vector<std::uint8_t>& request,
                   MessageType expected);
  void send_all(const std::vector<std::uint8_t>& bytes);
  Frame read_frame();

  ClientConfig config_;
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace psc::net
