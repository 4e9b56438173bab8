// The router's view of its cluster: which psc_serve endpoint holds which
// shards, which endpoints the health checker currently believes are up,
// and per-replica traffic counters (inflight, retries, hedges, failures,
// latency) -- the table every routing decision reads and every attempt
// writes. Thread-safe: the health checker, the per-shard attempt threads
// and stats snapshots all touch it concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/api.hpp"

namespace psc::cluster {

/// One configured replica: where it listens and which shard indices of
/// the manifest it serves.
struct ReplicaEndpoint {
  std::string host;
  std::uint16_t port = 0;
  std::vector<std::size_t> shards;
  /// Serves *every* manifest shard, including ones appended after
  /// startup ("host:port=all"). The live-ingest deployment shape: an
  /// unrestricted psc_serve over the whole store directory, so a
  /// refreshed manifest's tail shards are covered without reconfiguring
  /// the router. `shards` is ignored when set.
  bool all_shards = false;

  std::string name() const { return host + ":" + std::to_string(port); }
  bool serves(std::size_t shard) const {
    if (all_shards) return true;
    for (const std::size_t claimed : shards) {
      if (claimed == shard) return true;
    }
    return false;
  }
};

/// Parses a replica list of the form
///   "host:port=0,1;host:port=1,2;host:port=all"
/// (semicolon-separated endpoints, '=' before the comma-separated shard
/// indices each serves, or the keyword "all" for a replica serving every
/// shard -- present and future, see ReplicaEndpoint::all_shards). Throws
/// std::invalid_argument on malformed specs, out-of-range ports, or an
/// endpoint serving no shards.
std::vector<ReplicaEndpoint> parse_replica_list(const std::string& spec);

/// Why an attempt was started, for the per-replica counters.
enum class AttemptKind { kPrimary, kRetry, kHedge };

class ReplicaTable {
 public:
  explicit ReplicaTable(std::vector<ReplicaEndpoint> endpoints);

  std::size_t size() const { return endpoints_.size(); }
  const ReplicaEndpoint& endpoint(std::size_t replica) const {
    return endpoints_[replica];
  }

  /// The largest shard index any endpoint claims to serve, plus one;
  /// 0 with no endpoints. The router checks this covers the manifest.
  std::size_t shard_span() const;

  /// Replica indices currently believed up that serve `shard`, ordered
  /// by load (fewest inflight attempts first, index as tiebreak for
  /// determinism). Empty when the shard has no live replica -- the
  /// kShardUnavailable condition.
  std::vector<std::size_t> live_candidates(std::size_t shard) const;

  bool is_up(std::size_t replica) const;
  /// Marks a replica up or down. Idempotent: only an actual *transition*
  /// bumps the benched/revived counters, so a health checker re-probing
  /// a dead replica every interval counts one bench, not one per probe.
  void set_up(std::size_t replica, bool up);

  /// Attempt accounting, called from the router's attempt threads.
  void attempt_started(std::size_t replica, AttemptKind kind);
  void attempt_finished(std::size_t replica, bool success,
                        double latency_seconds);
  /// A hedge loser torn down by the winner: releases the inflight slot
  /// without counting a failure (the replica did nothing wrong).
  void attempt_cancelled(std::size_t replica);

  /// One row per replica, for ServiceStats::replicas. The whole
  /// snapshot is taken under ONE lock scope: latency ring, traffic
  /// counters and bench/revive transitions are copied together, so a row
  /// can never pair a post-bench counter with a pre-bench latency window.
  std::vector<service::ReplicaStats> snapshot() const;

 private:
  struct State {
    bool up = true;  ///< optimistic until a probe or attempt says no
    std::uint64_t inflight = 0;
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t failures = 0;
    std::uint64_t benched = 0;   ///< up->down transitions (not re-probes)
    std::uint64_t revived = 0;   ///< down->up transitions
    double max_latency_seconds = 0.0;
    /// Bounded ring of recent completed-attempt latencies; p50 is
    /// computed over this window at snapshot time.
    std::vector<double> latency_window;
    std::size_t latency_next = 0;
  };
  static constexpr std::size_t kLatencyWindow = 512;

  mutable std::mutex mutex_;
  std::vector<ReplicaEndpoint> endpoints_;
  std::vector<State> states_;
};

}  // namespace psc::cluster
