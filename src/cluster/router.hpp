// psc::cluster::Router -- the cluster coordinator. Owns the sharded
// store's .pscman manifest, a ReplicaTable of shard-holding psc_serve
// endpoints, and a HealthChecker; implements service::SearchBackend so
// net::Server serves it exactly like a single-node SearchService.
//
// One submitted query fans out as one Search frame per manifest shard,
// sent to a live replica serving that shard with the E-value search
// space overridden to the manifest's whole-set residue total (wire codec
// v2). Replies come back with shard-local subject ids; the router remaps
// them through the manifest's per-shard sequence bases, concatenates,
// and re-sorts with core::match_order -- the identical merge the
// in-process fan-out (service/shard_query) performs, so the merged
// encode_matches bytes equal a single unsharded node's, bit for bit
// (proof sketch in DESIGN.md §14).
//
// Robustness: per-shard attempts retry with exponential backoff across
// live replicas (connection-level failures mark the replica down on the
// spot); a straggling attempt is hedged with a duplicate to another
// replica after hedge_delay, first valid reply wins and the loser's
// socket is shut down from the winner's side so its thread drains
// immediately; a shard with no live replica fails the whole query with
// WireError(kShardUnavailable) -- a typed error frame at the wire
// boundary, never a hang. Per-replica traffic counters surface through
// stats_snapshot() as ServiceStats::replicas.
//
// Multi-tenant admission happens HERE, once per submitted fan-out: the
// request's tenant passes the per-tenant quota gates (TenantRegistry)
// and the cluster-wide active-fanout cap before any replica sees a
// byte; over-quota fails the future with a typed WireError
// (kQuotaExceeded / kAdmissionRejected), never a silent queue. Hedges
// draw from the tenant's hedge budget (try_spend_hedge) -- a tenant
// out of budget keeps its primary attempt but duplicates nothing.
// Replica connections carry no kHello, so shard sub-requests are never
// double-billed downstream.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/replica_table.hpp"
#include "service/backend.hpp"
#include "service/tenant.hpp"
#include "store/shard_store.hpp"

namespace psc::cluster {

struct RouterConfig {
  /// Local path prefix of the sharded store; <prefix>.pscman must
  /// exist (the router owns the manifest; replicas own the shards).
  std::string manifest_prefix;
  /// The bank name on the wire: what clients put in their Search frame
  /// and what shard prefixes are derived from on replica requests
  /// ("<bank_prefix>.shardNN" relative to each replica's --bank-root).
  std::string bank_prefix;
  /// The cluster: every endpoint with the manifest shard indices it
  /// serves. Every manifest shard must be covered by at least one.
  std::vector<ReplicaEndpoint> replicas;
  /// Attempt rounds per shard (first try + retries), each against the
  /// currently least-loaded live candidate.
  std::size_t max_attempts = 3;
  /// Backoff before retry round n doubles from this base.
  double retry_backoff_seconds = 0.05;
  /// Seconds a primary attempt may run before a duplicate is hedged to
  /// another live replica; <= 0 disables hedging.
  double hedge_delay_seconds = 0.25;
  /// Per-attempt socket timeout (connect + each send/recv).
  double request_timeout_seconds = 30.0;
  /// Health probe cadence and per-probe timeout.
  HealthConfig health;
  /// Per-tenant policy (weights, qps, in-flight, hedge budgets). The
  /// router bills each submitted fan-out to its request's tenant; the
  /// replica connections it opens carry no hello, so the work is billed
  /// exactly once, at this layer.
  service::TenantConfig tenants;
  /// Cluster-wide admission gate: fan-outs allowed in flight at once
  /// across all tenants; 0 disables. Beyond it a submit fails fast with
  /// WireError(kAdmissionRejected) instead of queueing.
  std::size_t max_active_fanouts = 0;
};

class Router : public service::SearchBackend {
 public:
  /// Loads the manifest, validates replica coverage (throws
  /// std::invalid_argument when a manifest shard has no configured
  /// replica at all), runs one synchronous probe round so the first
  /// query routes on real up/down state, and starts the periodic
  /// health checker.
  explicit Router(RouterConfig config);
  ~Router();  ///< drains in-flight fan-outs, then stops health checks

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // SearchBackend. The future fails with net::WireError
  // (kShardUnavailable / kUnreachable / server-forwarded codes) or
  // succeeds with the byte-identical merged result.
  std::future<service::ServiceResponse> submit_search(
      service::ServiceRequest request) override;
  service::ServiceStats stats_snapshot() const override;

  /// Live-ingest adoption at the coordinator: re-reads the manifest from
  /// disk and swaps it in for subsequent fan-outs, provided the new
  /// generation is a *strict extension* of the one being served (same
  /// leading shard slots, same kind, revision not going backwards) and
  /// every shard -- including the appended tail -- is covered by a
  /// configured replica ("=all" claims cover everything). In-flight
  /// fan-outs keep the manifest snapshot they started with. Throws
  /// net::WireError: kBankNotFound for a foreign prefix,
  /// kRevisionMismatch for a non-extension, kShardUnavailable for an
  /// uncovered tail shard; store::StoreError if the manifest fails to
  /// load. Idempotent when the revision is unchanged.
  std::uint64_t refresh_manifest(const std::string& bank_prefix) override;

  /// A coherent copy of the manifest generation currently being served
  /// (a copy, not a reference: refresh_manifest may swap it).
  store::ShardManifest manifest() const {
    std::lock_guard<std::mutex> lock(manifest_mutex_);
    return manifest_;
  }
  ReplicaTable& replicas() { return table_; }
  HealthChecker& health() { return health_checker_; }
  const RouterConfig& config() const { return config_; }

 private:
  struct Race;

  service::ServiceResponse run_fanout(const service::ServiceRequest& request);
  service::QueryResult query_shard(std::size_t shard,
                                   const std::string& tenant,
                                   const std::string& query_fasta,
                                   const service::QueryOptions& options);
  void run_attempt(const std::shared_ptr<Race>& race, std::size_t replica,
                   std::size_t shard, AttemptKind kind,
                   const std::string& query_fasta,
                   const service::QueryOptions& options);

  RouterConfig config_;
  /// The manifest generation fan-outs route by. Guarded by
  /// manifest_mutex_ once the health checker is running: run_fanout
  /// copies it under the lock, refresh_manifest swaps it under the lock.
  store::ShardManifest manifest_;
  mutable std::mutex manifest_mutex_;
  ReplicaTable table_;
  HealthChecker health_checker_;
  /// Per-tenant accounting and quota gates (own internal mutex; safe to
  /// call under drain_mutex_ or stats_mutex_, never the reverse).
  service::TenantRegistry registry_;

  mutable std::mutex stats_mutex_;
  service::ServiceStats stats_;

  /// In-flight fan-out count; the destructor waits for zero so no
  /// worker can touch a dead router. Guarded by drain_mutex_.
  std::size_t active_ = 0;
  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  bool stopping_ = false;  // guarded by drain_mutex_
};

}  // namespace psc::cluster
