#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/result_codec.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "service/api.hpp"

namespace psc::perfbench {

namespace {

/// A reply must arrive within this long, or the request is a timeout.
constexpr double kReplyTimeoutSeconds = 30.0;

/// A connected, blocking loopback socket; closed on destruction.
class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      throw std::runtime_error("loadgen: connect() failed");
    }
    const int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    timeval timeout{};
    timeout.tv_sec = static_cast<long>(kReplyTimeoutSeconds);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  /// Bytes read into `buffer`; 0 on close, timeout or error.
  std::size_t receive(std::vector<std::uint8_t>& buffer) {
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
      if (n > 0) return static_cast<std::size_t>(n);
      if (n < 0 && errno == EINTR) continue;
      return 0;
    }
  }

 private:
  int fd_ = -1;
};

/// Fills the reply side of `request` from one received frame.
void take_reply(Request& request, const net::Frame& frame,
                SteadyClock::time_point epoch) {
  request.received = seconds_since(epoch);
  try {
    if (frame.type == static_cast<std::uint16_t>(net::MessageType::kSearchResult)) {
      const service::QueryResult result =
          service::decode_query_result(frame.payload);
      request.decoded = seconds_since(epoch);
      request.service_latency = result.latency_seconds;
      request.reply_bytes = frame.payload.size();
      request.matches = core::encode_matches(result.matches);
      request.replied = true;
    } else if (frame.type == static_cast<std::uint16_t>(net::MessageType::kError)) {
      request.error = net::wire_error_code_name(
          net::decode_error_payload(frame.payload).code());
    } else {
      request.error = "unexpected-frame";
    }
  } catch (const std::exception&) {
    request.error = "undecodable-reply";
  }
  if (!request.replied) request.decoded = request.received;
}

/// One pipelined open-loop connection: a sender thread writes requests
/// as they fall due, this thread reads the replies in order.
void drive_connection(const Target& target,
                      const std::vector<std::string>& fastas,
                      std::vector<Request*> mine,
                      SteadyClock::time_point epoch) {
  std::unique_ptr<Socket> socket;
  try {
    socket = std::make_unique<Socket>(target.port);
  } catch (const std::exception&) {
    for (Request* request : mine) request->error = "unreachable";
    return;
  }
  std::mutex mutex;
  std::deque<Request*> pending;  // guarded by mutex
  std::size_t sent = 0;          // guarded by mutex
  bool sender_done = false;      // guarded by mutex

  std::thread sender([&] {
    for (Request* request : mine) {
      const auto due = epoch + std::chrono::duration_cast<SteadyClock::duration>(
                                   std::chrono::duration<double>(request->scheduled));
      std::this_thread::sleep_until(due);
      request->sent = seconds_since(epoch);
      net::SearchRequestFrame frame;
      frame.bank_prefix = target.bank_prefix;
      frame.query_fasta = fastas[request->query];
      const std::vector<std::uint8_t> bytes = net::encode_frame(
          net::MessageType::kSearch, net::encode_search_request(frame));
      {
        std::lock_guard<std::mutex> lock(mutex);
        pending.push_back(request);
        ++sent;
      }
      const bool ok = socket->send_all(bytes);
      request->written = seconds_since(epoch);
      if (!ok) break;
    }
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
  });

  net::FrameReader reader(256ull << 20);
  std::vector<std::uint8_t> buffer(1 << 16);
  std::size_t answered = 0;
  bool broken = false;
  while (!broken) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (sender_done && answered == sent) break;
    }
    if (answered == mine.size()) break;
    const std::size_t n = socket->receive(buffer);
    if (n == 0) {
      broken = true;
      break;
    }
    try {
      reader.feed(std::span<const std::uint8_t>(buffer.data(), n));
      while (std::optional<net::Frame> frame = reader.next()) {
        Request* request = nullptr;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (pending.empty()) break;
          request = pending.front();
          pending.pop_front();
        }
        take_reply(*request, *frame, epoch);
        ++answered;
      }
    } catch (const std::exception&) {
      broken = true;
    }
  }
  sender.join();
  // Whatever is still unanswered timed out or lost its connection.
  for (Request* request : mine) {
    if (!request->replied && request->error.empty()) {
      request->error = broken ? "timeout" : "unanswered";
    }
  }
}

}  // namespace

double seconds_since(SteadyClock::time_point epoch) {
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

std::vector<Request> run_open_loop(const Target& target,
                                   const std::vector<std::string>& fastas,
                                   const QuerySource& source, double rate,
                                   double seconds, std::size_t connections,
                                   std::size_t first_index,
                                   SteadyClock::time_point epoch) {
  const double start = seconds_since(epoch) + 0.01;
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<Request> requests;
  requests.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::optional<std::size_t> query = source(first_index + i);
    if (!query) break;
    Request request;
    request.index = first_index + i;
    request.query = *query;
    request.scheduled = start + static_cast<double>(i) / rate;
    requests.push_back(std::move(request));
  }
  connections = std::max<std::size_t>(1, connections);
  std::vector<std::vector<Request*>> split(connections);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    split[i % connections].push_back(&requests[i]);
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(drive_connection, std::cref(target), std::cref(fastas),
                         std::move(split[c]), epoch);
  }
  for (std::thread& thread : threads) thread.join();
  return requests;
}

std::vector<Request> run_closed_loop(const Target& target,
                                     const std::vector<std::string>& fastas,
                                     const QuerySource& source, double seconds,
                                     std::size_t clients,
                                     std::size_t first_index,
                                     SteadyClock::time_point epoch) {
  const double deadline = seconds_since(epoch) + seconds;
  std::atomic<std::size_t> next{first_index};
  std::mutex mutex;
  std::vector<Request> requests;  // guarded by mutex
  const auto client_loop = [&] {
    std::unique_ptr<net::Client> client;
    std::vector<Request> mine;
    try {
      net::ClientConfig config;
      config.port = target.port;
      config.timeout_seconds = kReplyTimeoutSeconds;
      client = std::make_unique<net::Client>(config);
    } catch (const std::exception&) {
      Request failed;
      failed.error = "unreachable";
      mine.push_back(std::move(failed));
    }
    while (client && seconds_since(epoch) < deadline) {
      const std::size_t index = next.fetch_add(1);
      const std::optional<std::size_t> query = source(index);
      if (!query) break;
      Request request;
      request.index = index;
      request.query = *query;
      request.scheduled = request.sent = request.written = seconds_since(epoch);
      try {
        const service::QueryResult result =
            client->search(target.bank_prefix, fastas[*query]);
        request.received = request.decoded = seconds_since(epoch);
        request.service_latency = result.latency_seconds;
        request.matches = core::encode_matches(result.matches);
        request.reply_bytes = service::encode_query_result(result).size();
        request.replied = true;
      } catch (const net::WireError& e) {
        request.received = request.decoded = seconds_since(epoch);
        request.error = net::wire_error_code_name(e.code());
        const bool connection_lost = e.code() == net::WireErrorCode::kUnreachable ||
                                     e.code() == net::WireErrorCode::kBadFrame;
        mine.push_back(std::move(request));
        if (connection_lost) break;
        continue;
      } catch (const std::exception&) {
        request.received = request.decoded = seconds_since(epoch);
        request.error = "client-error";
        mine.push_back(std::move(request));
        break;
      }
      mine.push_back(std::move(request));
    }
    std::lock_guard<std::mutex> lock(mutex);
    for (Request& request : mine) requests.push_back(std::move(request));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < std::max<std::size_t>(1, clients); ++c) {
    threads.emplace_back(client_loop);
  }
  for (std::thread& thread : threads) thread.join();
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.index < b.index; });
  return requests;
}

std::vector<double> round_walls(const std::vector<Request>& requests,
                                std::size_t round) {
  std::vector<double> done;
  for (const Request& request : requests) {
    if (request.replied) done.push_back(request.decoded);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> walls;
  for (std::size_t i = round; i < done.size(); i += round) {
    walls.push_back(done[i] - done[i - round]);
  }
  return walls;
}

bool is_rejection(const std::string& error) {
  return error == "too-many-in-flight" || error == "quota-exceeded" ||
         error == "admission-rejected";
}

}  // namespace psc::perfbench
