// A resident, batched front-end over the pipeline: the process-lifetime
// analogue of the paper's accelerator workflow, where one reference bank
// is loaded onto the board once and queries stream past it. The service
// keeps hot targets -- a plain (bank, index) pair or a whole shard set
// (store/shard_store.hpp) -- mmap-resident in an LRU cache keyed by
// store path + seed model, fans each pass out across the target's
// shards (service/shard_query.hpp; co-queried shards stay resident
// together, whole sets evict atomically), and coalesces queries that
// are queued against the same bank *with the same per-query options*
// into one shared step-2/step-3 pass -- the amortization every later
// scaling layer (the network front-end in src/net/) builds on.
//
//   service::SearchService svc;                 // subset-w4, host-parallel
//   service::ServiceRequest request;
//   request.query = queries;                    // protein bank
//   request.bank_prefix = "nr";                 // nr.pscbank + nr.pscidx
//   auto future = svc.submit(std::move(request));
//   const service::ServiceResponse r = future.get();
//
// Thread safety: submit()/snapshot() may be called from any number of
// threads. All pipeline work happens on one internal worker thread,
// which is what makes coalescing natural: requests arriving while a pass
// is running pile up and become the next batch.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "core/pipeline.hpp"
#include "rasc/board_cache.hpp"
#include "service/api.hpp"
#include "service/backend.hpp"
#include "service/scheduler.hpp"
#include "service/shard_query.hpp"
#include "service/tenant.hpp"
#include "util/executor.hpp"

namespace psc::service {

/// Pipeline options tuned for service use: multicore steps 2 and 3 on
/// all cores by default (the reference bank is large; queries are
/// small), matching psc_serve's --threads=0 default.
core::PipelineOptions default_service_options();

struct ServiceConfig {
  /// Resident *shard files* kept alive across all cached targets: a
  /// plain unsharded bank costs 1, a sharded bank costs its shard count
  /// (the set stays resident together or not at all -- the LRU evicts
  /// whole sets, never a partial one, and a set larger than this cap is
  /// served transiently without evicting anything). 0 disables caching
  /// (every batch reloads from the store -- the bench's "cold load"
  /// mode).
  std::size_t max_resident = 4;
  /// How the worker orders pending groups (service/scheduler.hpp):
  /// kAffinity serves the bank already on the accelerator board first,
  /// minimizing modeled bank uploads for mixed-bank streams; kFifo is
  /// the legacy oldest-first order. Either way per-request results are
  /// byte-identical -- only latency and board accounting move.
  SchedulerPolicy scheduler = SchedulerPolicy::kAffinity;
  /// Most requests the worker takes off the queue per scheduling round;
  /// 0 means unbounded (the legacy drain-everything behaviour).
  /// Bounding the drain keeps one burst from turning into a single
  /// giant pass and gives the scheduler stream-granularity decisions.
  std::size_t max_drain_per_round = 256;
  /// Aging guard: a pending group skipped this many scheduling rounds
  /// is served next regardless of bank affinity. 0 disables the guard.
  std::uint64_t starvation_rounds = 4;
  /// Weighted-fair scheduling across tenants (deficit round-robin over
  /// the tenant ring, `scheduler` ordering within a tenant). Off by
  /// default: single-tenant deployments keep the exact legacy order.
  /// Either way replies are byte-identical -- fairness only reorders.
  bool fair_scheduler = false;
  /// DRR deficit refill per tenant visit, in query residues.
  std::uint64_t fair_quantum = 4096;
  /// Per-tenant quotas and weights; the default TenantConfig admits
  /// everything (all quotas unlimited).
  TenantConfig tenants;
  core::PipelineOptions options = default_service_options();
  bio::SubstitutionMatrix matrix = bio::SubstitutionMatrix::blosum62();
};

class SearchService : public SearchBackend {
 public:
  explicit SearchService(ServiceConfig config = {});
  ~SearchService();  ///< drains every pending request, then joins

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// The one submission path. Enqueues `request.query` (a protein bank)
  /// against the bank stored at `request.bank_prefix` (expects
  /// <prefix>.pscbank and <prefix>.pscidx). Load and pipeline failures
  /// surface as exceptions on the returned future (store::StoreError for
  /// missing/corrupt/mismatched files). Throws immediately on a
  /// non-protein query bank or after shutdown began, and with a typed
  /// QuotaError (service/tenant.hpp) when the request's tenant is over
  /// one of its quotas -- rejected requests are never queued, so an
  /// over-quota tenant gets an immediate answer, not silence.
  std::future<ServiceResponse> submit(ServiceRequest request);

  /// Convenience: submits with the service configuration's own option
  /// values as the per-query options (see default_query_options()).
  std::future<ServiceResponse> submit(bio::SequenceBank query,
                                      std::string bank_prefix);

  /// Enqueues several requests under one lock acquisition, so the worker
  /// observes them together -- when it is idle, requests that agree on
  /// (bank_prefix, options) are guaranteed to coalesce into one shared
  /// pass (independent submit() calls only coalesce when they happen to
  /// queue while a pass is running).
  std::vector<std::future<ServiceResponse>> submit_batch(
      std::vector<ServiceRequest> requests);

  /// Convenience: one prefix, service-default options for every bank.
  std::vector<std::future<ServiceResponse>> submit_batch(
      std::vector<bio::SequenceBank> queries, const std::string& bank_prefix);

  /// One coherent snapshot of the service counters and gauges; the
  /// network front-end's Stats frame is this struct, encoded verbatim.
  ServiceStats snapshot() const;

  // SearchBackend: the network front-end's view of this service.
  std::future<ServiceResponse> submit_search(ServiceRequest request) override {
    return submit(std::move(request));
  }
  ServiceStats stats_snapshot() const override { return snapshot(); }

  /// Live-ingest adoption: re-reads `bank_prefix`'s manifest revision
  /// from disk so the *next* pass against the prefix serves the appended
  /// generation. Already-resident generations are untouched -- a pass
  /// that pinned the old revision keeps it (shared_ptr refcounts), and
  /// the old resident set ages out of the LRU like any other entry. The
  /// new generation's load reuses every still-matching resident shard,
  /// so the refresh costs one tail-shard read, not a whole-set reload.
  /// Returns the revision now being served (0 for a plain pair or a v2
  /// manifest). Throws store::StoreError when the prefix names neither
  /// a manifest nor a plain pair, or the manifest fails validation.
  std::uint64_t refresh_manifest(const std::string& bank_prefix) override;

  /// The per-query options a convenience submit() runs under: the
  /// service configuration's own cutoff/traceback/composition values.
  QueryOptions default_query_options() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Request {
    ServiceRequest request;
    std::promise<ServiceResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One coalescible bucket of drained requests the worker is holding:
  /// every member agrees on (bank prefix, per-query options), so the
  /// whole bucket runs as one shared pass whenever the scheduler picks
  /// it. Owns its requests -- once drained off the queue, a request
  /// lives here until its promise is fulfilled.
  struct PendingGroup {
    std::string prefix;
    CoalesceKey options_key{};
    std::uint64_t bank = 0;          ///< bank_affinity_key(cache_key)
    std::uint64_t earliest_seq = 0;  ///< arrival rank of oldest member
    std::uint64_t work = 0;          ///< queued query residues
    std::uint64_t rounds_waited = 0;
    std::vector<Request> members;    ///< submission order preserved
  };

  /// A resident target: the whole shard set (one shard for a plain
  /// bank), kept or evicted as a unit. The batch that is querying a set
  /// holds the shared_ptr, which is what pins it against eviction.
  struct ResidentSet {
    LoadedBankSet set;
    std::uint64_t last_use = 0;
  };

  void worker_loop();
  void process_group(const std::string& prefix, const QueryOptions& options,
                     std::vector<Request*>& group);
  std::shared_ptr<ResidentSet> acquire(const std::string& prefix,
                                       bool& was_hit);
  std::string cache_key(const std::string& prefix) const;
  /// The revision of `prefix` queries should serve right now: the pinned
  /// entry in revisions_ if one exists, else the on-disk manifest
  /// revision (pinned on first touch, so later appends do not move a
  /// serving prefix until refresh_manifest says so). Store errors
  /// propagate to the caller.
  std::uint64_t current_revision(const std::string& prefix);
  std::size_t resident_shard_count() const;      ///< worker thread only
  std::size_t resident_compressed_count() const; ///< worker thread only

  ServiceConfig config_;
  index::SeedModel model_;

  /// Quota enforcement and per-tenant accounting. Takes only its own
  /// internal mutex (never mutex_), so submit() may admit while holding
  /// the service lock without ordering concerns.
  TenantRegistry registry_;

  /// Cross-run accelerator board state: which bank image each modeled
  /// FPGA holds in SRAM. Shared by every RASC pass this service runs
  /// (process_group wires it into the pass options), which is what lets
  /// back-to-back batches against the same bank skip the upload DMA.
  /// Thread-safe; snapshot() reads it from outside the worker.
  rasc::BoardCache board_cache_{2};

  /// Service-lifetime work-stealing pool: every pipeline pass (parallel
  /// step 2, parallel step 3, parallel index builds) schedules here
  /// instead of spawning threads per batch. Declared before worker_ and
  /// joined after it (members destroy in reverse order), so no pass can
  /// outlive the pool.
  util::Executor executor_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stop_ = false;
  ServiceStats stats_;
  /// Requests drained off queue_ but not yet served (held in the
  /// worker's pending groups); snapshot()'s queue_depth includes them
  /// so a drained-but-waiting request never looks "in flight".
  std::size_t worker_pending_ = 0;
  /// The manifest revision each prefix is pinned to serve (guarded by
  /// mutex_). Populated lazily on first query, moved only by
  /// refresh_manifest -- which is what keeps a serving generation stable
  /// while psc_index --append publishes new revisions underneath it.
  std::unordered_map<std::string, std::uint64_t> revisions_;

  // Touched only by the worker thread; no locking needed.
  std::unordered_map<std::string, std::shared_ptr<ResidentSet>> cache_;
  std::uint64_t use_tick_ = 0;

  std::thread worker_;
};

}  // namespace psc::service
