// Load generation over the wire protocol, from outside the server.
//
// Open loop: requests are due at a fixed rate whatever the server does,
// spread round-robin over a few pipelined connections; each connection
// has a sender that writes a request when it falls due (encode_frame +
// encode_search_request) and a receiver that reassembles replies with
// FrameReader. Latency is timed from the *scheduled* send, so a stall
// also charges the requests queued behind it, and the sender's lateness
// is recorded per request.
//
// Closed loop: `clients` blocking net::Client connections, each sending
// its next request when the previous reply arrives.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace psc::perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds from `epoch` to now.
double seconds_since(SteadyClock::time_point epoch);

/// One request's life, in seconds since the phase's epoch.
struct Request {
  std::size_t index = 0;       ///< position in the workload's stream
  std::size_t query = 0;       ///< pool index of the query asked
  double scheduled = 0.0;      ///< due time (open loop) or send time
  double sent = 0.0;           ///< encode started
  double written = 0.0;        ///< frame written to the socket
  double received = 0.0;       ///< reply frame complete
  double decoded = 0.0;        ///< reply decoded
  double service_latency = 0.0;  ///< QueryResult::latency_seconds
  std::size_t reply_bytes = 0;   ///< SearchResult payload bytes
  bool replied = false;          ///< a SearchResult came back
  std::string error;             ///< wire error code name, "timeout", ...
  Bytes matches;                 ///< encode_matches of the reply
};

struct Target {
  std::uint16_t port = 0;
  std::string bank_prefix;
};

/// Maps a stream position to a pool index; nullopt ends the stream.
using QuerySource = std::function<std::optional<std::size_t>(std::size_t)>;

/// Runs floor(rate * seconds) requests, request i due at i / rate, over
/// `connections` pipelined connections. Stream positions start at
/// `first_index`. Every request comes back with a reply or an error.
std::vector<Request> run_open_loop(const Target& target,
                                   const std::vector<std::string>& fastas,
                                   const QuerySource& source, double rate,
                                   double seconds, std::size_t connections,
                                   std::size_t first_index,
                                   SteadyClock::time_point epoch);

/// Runs `clients` blocking clients until `seconds` have passed or the
/// source ends, taking stream positions from `first_index` on.
std::vector<Request> run_closed_loop(const Target& target,
                                     const std::vector<std::string>& fastas,
                                     const QuerySource& source, double seconds,
                                     std::size_t clients,
                                     std::size_t first_index,
                                     SteadyClock::time_point epoch);

/// Wall seconds per `round` completions: the gaps between every
/// round-th completion time of the replied requests, in order.
std::vector<double> round_walls(const std::vector<Request>& requests,
                                std::size_t round);

/// True for the wire codes that mean the server refused the request
/// (in-flight cap, quotas, admission) rather than failed it.
bool is_rejection(const std::string& error);

}  // namespace psc::perfbench
