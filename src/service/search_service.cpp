#include "service/search_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "store/bank_store.hpp"
#include "store/format.hpp"

namespace psc::service {

core::PipelineOptions default_service_options() {
  core::PipelineOptions options;
  options.backend = core::Step2Backend::kHostParallel;
  options.set_threads(0);
  return options;
}

SearchService::SearchService(ServiceConfig config)
    : config_(std::move(config)),
      model_(core::make_seed_model(config_.options.seed_model)),
      registry_(config_.tenants) {
  config_.options.validate();
  // Route every pass through the service-owned pool (unless the caller
  // wired in an executor of their own).
  if (config_.options.executor == nullptr) {
    config_.options.executor = &executor_;
  }
  worker_ = std::thread([this] { worker_loop(); });
}

SearchService::~SearchService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::string SearchService::cache_key(const std::string& prefix) const {
  // Store path + seed model: a model change (new service config) never
  // aliases a resident built under the old one.
  return prefix + "|" + model_.name();
}

QueryOptions SearchService::default_query_options() const {
  QueryOptions options;
  options.e_value_cutoff = config_.options.e_value_cutoff;
  options.with_traceback = config_.options.with_traceback;
  options.composition_based_stats = config_.options.composition_based_stats;
  return options;
}

std::future<ServiceResponse> SearchService::submit(ServiceRequest request) {
  if (request.query.kind() != bio::SequenceKind::kProtein) {
    throw std::invalid_argument(
        "SearchService::submit: query bank must be protein "
        "(translate DNA before submitting)");
  }
  request.tenant.name = normalize_tenant_name(request.tenant.name);
  Request queued;
  queued.request = std::move(request);
  queued.enqueued = std::chrono::steady_clock::now();
  std::future<ServiceResponse> future = queued.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      throw std::runtime_error("SearchService::submit: service is stopping");
    }
    // Admission is the quota gate: a QuotaError here leaves nothing
    // queued and nothing charged (the registry takes only its own
    // mutex, so admitting under mutex_ cannot invert locks).
    registry_.admit(queued.request.tenant.name,
                    queued.request.query.total_residues(),
                    queued.request.bank_prefix);
    queue_.push_back(std::move(queued));
    ++stats_.queries_submitted;
  }
  cv_.notify_one();
  return future;
}

std::future<ServiceResponse> SearchService::submit(bio::SequenceBank query,
                                                   std::string bank_prefix) {
  ServiceRequest request;
  request.query = std::move(query);
  request.bank_prefix = std::move(bank_prefix);
  request.options = default_query_options();
  return submit(std::move(request));
}

std::vector<std::future<ServiceResponse>> SearchService::submit_batch(
    std::vector<ServiceRequest> requests) {
  for (const ServiceRequest& request : requests) {
    if (request.query.kind() != bio::SequenceKind::kProtein) {
      throw std::invalid_argument(
          "SearchService::submit_batch: query banks must be protein");
    }
  }
  for (ServiceRequest& request : requests) {
    request.tenant.name = normalize_tenant_name(request.tenant.name);
  }
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(requests.size());
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      throw std::runtime_error(
          "SearchService::submit_batch: service is stopping");
    }
    // All-or-nothing admission: a mid-batch QuotaError rolls back the
    // members already admitted (their qps tokens stay spent -- they did
    // ask) and queues none of them.
    std::size_t admitted = 0;
    try {
      for (const ServiceRequest& request : requests) {
        registry_.admit(request.tenant.name, request.query.total_residues(),
                        request.bank_prefix);
        ++admitted;
      }
    } catch (...) {
      for (std::size_t i = 0; i < admitted; ++i) {
        registry_.cancel(requests[i].tenant.name, requests[i].bank_prefix);
      }
      throw;
    }
    for (ServiceRequest& request : requests) {
      Request queued;
      queued.request = std::move(request);
      queued.enqueued = now;
      futures.push_back(queued.promise.get_future());
      queue_.push_back(std::move(queued));
      ++stats_.queries_submitted;
    }
  }
  cv_.notify_one();
  return futures;
}

std::vector<std::future<ServiceResponse>> SearchService::submit_batch(
    std::vector<bio::SequenceBank> queries, const std::string& bank_prefix) {
  std::vector<ServiceRequest> requests;
  requests.reserve(queries.size());
  for (bio::SequenceBank& query : queries) {
    ServiceRequest request;
    request.query = std::move(query);
    request.bank_prefix = bank_prefix;
    request.options = default_query_options();
    requests.push_back(std::move(request));
  }
  return submit_batch(std::move(requests));
}

ServiceStats SearchService::snapshot() const {
  const rasc::BoardCacheStats board = board_cache_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats snapshot = stats_;
  snapshot.queue_depth = queue_.size() + worker_pending_;
  snapshot.mean_batch_latency_seconds =
      snapshot.batches > 0
          ? snapshot.total_batch_latency_seconds /
                static_cast<double>(snapshot.batches)
          : 0.0;
  snapshot.board_bitstream_loads = board.bitstream_loads;
  snapshot.board_bank_uploads = board.bank_uploads;
  snapshot.board_swaps = board.board_swaps;
  snapshot.bank_uploads_skipped = board.uploads_skipped;
  snapshot.board_upload_seconds = board.upload_seconds;
  snapshot.board_upload_seconds_saved = board.upload_seconds_saved;
  snapshot.scheduler_policy = scheduler_policy_name(config_.scheduler);
  snapshot.fair_scheduler = config_.fair_scheduler;
  snapshot.tenants = registry_.snapshot();
  return snapshot;
}

void SearchService::worker_loop() {
  // The worker's private scheduling state: drained-but-unserved groups,
  // the arrival counter that orders them, and which bank the last pass
  // left on the accelerator board (0 = nothing yet). None of it needs
  // mutex_ -- only queue_ handoff and stats do.
  std::vector<PendingGroup> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t board_bank = 0;
  // The DRR state (tenant ring, deficits, cursor) is worker-private,
  // like the pending groups themselves.
  FairScheduler fair(FairScheduler::Config{
      config_.fair_quantum, config_.scheduler, config_.starvation_rounds});
  const FairScheduler::WeightFn weight = [this](const std::string& tenant) {
    return registry_.weight(tenant);
  };
  for (;;) {
    std::vector<Request> arrivals;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Block only when there is nothing to schedule; with groups in
      // hand the worker just tops up from the queue and keeps serving.
      if (pending.empty()) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      }
      // Capped drain: a burst becomes several scheduling rounds instead
      // of one giant pass, so coalescing still happens (per group, per
      // round) but one hot bank cannot absorb the whole queue ahead of
      // everyone else. Shutdown lifts the cap -- every queued request
      // must still be served before the worker may exit.
      std::size_t take = queue_.size();
      if (!stop_ && config_.max_drain_per_round != 0) {
        take = std::min(take, config_.max_drain_per_round);
      }
      for (std::size_t i = 0; i < take; ++i) {
        arrivals.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      worker_pending_ += arrivals.size();
      if (stop_ && queue_.empty() && arrivals.empty() && pending.empty()) {
        return;
      }
    }

    // Fold arrivals into pending groups, keyed by (target bank, exact
    // per-query options) -- a pass runs under one option set, so only
    // requests that agree may share it. The key is the exact option
    // fields (group_key), never a hash: a fingerprint collision between
    // distinct option sets must not merge two passes that would compute
    // different answers. Submission order is preserved within a group.
    for (Request& request : arrivals) {
      const std::uint64_t seq = next_seq++;
      const CoalesceKey okey = request.request.options.group_key();
      PendingGroup* group = nullptr;
      for (PendingGroup& candidate : pending) {
        if (candidate.prefix == request.request.bank_prefix &&
            candidate.options_key == okey) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        pending.emplace_back();
        group = &pending.back();
        group->prefix = request.request.bank_prefix;
        group->options_key = okey;
        group->bank = bank_affinity_key(cache_key(group->prefix));
        group->earliest_seq = seq;
      }
      group->work += request.request.query.total_residues();
      group->members.push_back(std::move(request));
    }
    if (pending.empty()) continue;  // stop_ raced with an empty queue

    // Pick one group, serve it, age the rest. Views carry per-tenant
    // shares (who contributed how many residues to each group) so the
    // fair scheduler can bill every member of a coalesced pass; plain
    // pick_next_group ignores them.
    std::vector<GroupView> views;
    views.reserve(pending.size());
    for (const PendingGroup& group : pending) {
      GroupView view{group.bank, group.earliest_seq, group.work,
                     group.rounds_waited, {}};
      if (config_.fair_scheduler) {
        for (const Request& member : group.members) {
          const std::string& tenant = member.request.tenant.name;
          const std::uint64_t residues = member.request.query.total_residues();
          bool found = false;
          for (TenantShare& share : view.shares) {
            if (share.tenant == tenant) {
              share.work += residues;
              found = true;
              break;
            }
          }
          if (!found) view.shares.push_back(TenantShare{tenant, residues});
        }
      }
      views.push_back(std::move(view));
    }
    const PickResult pick =
        config_.fair_scheduler
            ? fair.pick(views, board_bank, weight)
            : pick_next_group(views, board_bank, config_.scheduler,
                              config_.starvation_rounds);
    PendingGroup chosen = std::move(pending[pick.index]);
    pending.erase(pending.begin() +
                  static_cast<std::ptrdiff_t>(pick.index));
    for (PendingGroup& group : pending) ++group.rounds_waited;
    board_bank = chosen.bank;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.scheduler_rounds;
      if (pick.starvation_promotion) ++stats_.starvation_promotions;
      if (pick.bank_switch) ++stats_.bank_switches;
      if (pick.reordered) ++stats_.scheduler_reorders;
    }

    std::vector<Request*> group;
    group.reserve(chosen.members.size());
    for (Request& member : chosen.members) group.push_back(&member);
    process_group(chosen.prefix, group.front()->request.options, group);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      worker_pending_ -= chosen.members.size();
    }
  }
}

std::size_t SearchService::resident_shard_count() const {
  std::size_t shards = 0;
  for (const auto& [key, resident] : cache_) {
    shards += resident->set.shard_count();
  }
  return shards;
}

std::size_t SearchService::resident_compressed_count() const {
  std::size_t shards = 0;
  for (const auto& [key, resident] : cache_) {
    shards += resident->set.compressed_shard_count();
  }
  return shards;
}

std::uint64_t SearchService::current_revision(const std::string& prefix) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = revisions_.find(prefix);
    if (it != revisions_.end()) return it->second;
  }
  // First touch: pin the prefix to its current on-disk generation.
  // Reading the manifest outside mutex_ keeps disk I/O out of the lock;
  // a racing first touch just reads the same revision twice.
  std::uint64_t revision = 0;
  if (store::manifest_exists(prefix)) {
    revision = store::read_manifest_revision(store::manifest_path(prefix));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return revisions_.emplace(prefix, revision).first->second;
}

std::uint64_t SearchService::refresh_manifest(const std::string& bank_prefix) {
  std::uint64_t revision = 0;
  if (store::manifest_exists(bank_prefix)) {
    // Full manifest validation, not just the revision word: a refresh
    // that would hand the worker a corrupt manifest fails here, typed,
    // leaving the pinned revision as it was.
    revision = store::read_manifest_revision(store::manifest_path(bank_prefix));
  } else {
    // A plain pair has no revision lineage, but the refresh still
    // verifies the store exists so a mistyped prefix is an error now,
    // not a kIo on some later query.
    store::inspect_bank(bank_prefix + ".pscbank");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  revisions_[bank_prefix] = revision;
  ++stats_.manifest_refreshes;
  stats_.store_revision = std::max(stats_.store_revision, revision);
  return revision;
}

std::shared_ptr<SearchService::ResidentSet> SearchService::acquire(
    const std::string& prefix, bool& was_hit) {
  // Residency is per *generation*: the pinned manifest revision joins
  // the key, so a refresh makes the next pass miss (and load the new
  // tail) while a pass already holding the old generation keeps it.
  // cache_key() alone stays the board-affinity identity -- appending to
  // a bank does not move which board image it prefers.
  const std::string generation_prefix = cache_key(prefix) + "|r";
  std::string key =
      generation_prefix + std::to_string(current_revision(prefix));
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    was_hit = true;
    it->second->last_use = ++use_tick_;
    return it->second;
  }
  was_hit = false;

  // A superseded generation of the same prefix donates every shard the
  // append left untouched (matched by base + bank checksum inside
  // load_bank_set), so adopting a new revision costs one tail-shard
  // read. Newest resident generation wins as the donor.
  const ResidentSet* previous = nullptr;
  for (const auto& [cached_key, cached] : cache_) {
    if (cached_key.size() > generation_prefix.size() &&
        cached_key.compare(0, generation_prefix.size(), generation_prefix) ==
            0 &&
        (previous == nullptr ||
         cached->set.revision > previous->set.revision)) {
      previous = cached.get();
    }
  }

  // Assemble the whole set before touching the cache: the incoming
  // entry is never a candidate for its own eviction pass, and a load
  // failure leaves the cache exactly as it was.
  auto resident = std::make_shared<ResidentSet>();
  resident->set = load_bank_set(prefix, model_, config_.verify_checksums,
                                previous ? &previous->set : nullptr);
  resident->last_use = ++use_tick_;

  // The pin is only as durable as residency: once the old generation
  // has been evicted, load_bank_set can only read the manifest that is
  // on disk now, which may be newer than the pinned revision (the old
  // manifest was atomically replaced by the append). Key the entry by
  // what was actually loaded and move the pin forward, so a revision-1
  // key never holds revision-2 data.
  const std::string loaded_key =
      generation_prefix + std::to_string(resident->set.revision);
  if (loaded_key != key) {
    key = loaded_key;
    std::lock_guard<std::mutex> lock(mutex_);
    revisions_[prefix] = resident->set.revision;
    stats_.store_revision =
        std::max(stats_.store_revision, resident->set.revision);
  }
  if (resident->set.reused_shards > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.refresh_shards_reused += resident->set.reused_shards;
  }

  const std::size_t incoming = resident->set.shard_count();
  if (config_.max_resident == 0 || incoming > config_.max_resident) {
    // Transient: caching is off, or the set could never fit the cap.
    // Serving it from the batch's own reference (without first evicting
    // every other resident for a set that cannot stay anyway) is the
    // "shard set larger than the cap" case of the eviction audit.
    return resident;
  }

  // Evict whole sets, oldest first, until the newcomer fits. An entry
  // whose use_count exceeds the cache's own reference is pinned: some
  // still-running batch holds it, and dropping the cache's reference
  // out from under that batch would free nothing *and* lose residency
  // the moment the batch completes.
  while (resident_shard_count() + incoming > config_.max_resident) {
    auto victim = cache_.end();
    for (auto candidate = cache_.begin(); candidate != cache_.end();
         ++candidate) {
      if (candidate->second.use_count() > 1) continue;  // pinned: in use
      if (victim == cache_.end() ||
          candidate->second->last_use < victim->second->last_use) {
        victim = candidate;
      }
    }
    if (victim == cache_.end()) break;  // everything pinned; serve transient
    cache_.erase(victim);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.evictions;
  }
  if (resident_shard_count() + incoming <= config_.max_resident) {
    cache_.emplace(key, resident);
  }
  return resident;
}

void SearchService::process_group(const std::string& prefix,
                                  const QueryOptions& options,
                                  std::vector<Request*>& group) {
  // Stats are published before any promise is fulfilled, so a caller
  // waking from future.get() always observes counters that include its
  // own query.
  const auto fail_all = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.queries_failed += group.size();
    }
    for (Request* request : group) {
      registry_.complete(request->request.tenant.name, prefix,
                         /*success=*/false, 0.0);
      request->promise.set_exception(error);
    }
  };

  bool was_hit = false;
  std::shared_ptr<ResidentSet> resident;
  try {
    resident = acquire(prefix, was_hit);
  } catch (...) {
    fail_all(std::current_exception());
    return;
  }

  // Everything between acquire and promise fulfillment can throw (a
  // large coalesced batch can bad_alloc while building the combined
  // bank or the replies); any escape here would unwind through
  // worker_loop into std::terminate with the promises forever
  // unfulfilled, so it all routes to fail_all instead.
  double latency_sum = 0.0;
  double batch_latency = 0.0;
  double accel_seconds = 0.0;
  std::vector<QueryResult> replies;
  try {
    // One combined query bank; each request owns a contiguous index
    // range so the shared pass's matches can be split back apart
    // afterwards.
    bio::SequenceBank combined(bio::SequenceKind::kProtein);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(group.size());
    for (const Request* request : group) {
      const std::size_t base = combined.size();
      for (const bio::Sequence& sequence : request->request.query) {
        combined.add(sequence);
      }
      ranges.emplace_back(base, request->request.query.size());
    }

    // The pass runs under the group's per-query options overlaid on the
    // service configuration (backend, threads, thresholds stay global).
    core::PipelineOptions pass_options = config_.options;
    pass_options.e_value_cutoff = options.e_value_cutoff;
    pass_options.with_traceback = options.with_traceback;
    pass_options.composition_based_stats = options.composition_based_stats;
    pass_options.search_space_residues = options.search_space_residues;
    // Every pass shares this service's board state, so a RASC pass pays
    // the bank upload only when the image on the board actually changes
    // (host backends never read the field).
    pass_options.rasc.board = &board_cache_;

    const core::PipelineResult result = run_query_over_set(
        combined, resident->set, pass_options, config_.matrix);
    if (result.step2_engine == "rasc-psc") {
      accel_seconds = result.times.step2_ungapped;
    }

    const auto completed = std::chrono::steady_clock::now();
    replies.resize(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      QueryResult& reply = replies[i];
      reply.batch_size = group.size();
      reply.bank_was_resident = was_hit;
      const auto [base, count] = ranges[i];
      for (const core::Match& match : result.matches) {
        if (match.bank0_sequence >= base &&
            match.bank0_sequence < base + count) {
          core::Match remapped = match;
          remapped.bank0_sequence -= static_cast<std::uint32_t>(base);
          reply.matches.push_back(std::move(remapped));
        }
      }
      reply.latency_seconds =
          std::chrono::duration<double>(completed - group[i]->enqueued)
              .count();
      latency_sum += reply.latency_seconds;
      batch_latency = std::max(batch_latency, reply.latency_seconds);
    }
  } catch (...) {
    fail_all(std::current_exception());
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches;
    stats_.max_batch = std::max(stats_.max_batch, group.size());
    stats_.queries_completed += group.size();
    stats_.total_latency_seconds += latency_sum;
    stats_.total_batch_latency_seconds += batch_latency;
    stats_.max_batch_latency_seconds =
        std::max(stats_.max_batch_latency_seconds, batch_latency);
    stats_.accel_modeled_seconds += accel_seconds;
    if (was_hit) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
    }
    stats_.resident_banks = cache_.size();
    stats_.resident_shards = resident_shard_count();
    stats_.resident_compressed_shards = resident_compressed_count();
    stats_.store_revision =
        std::max(stats_.store_revision, resident->set.revision);
  }

  for (std::size_t i = 0; i < group.size(); ++i) {
    registry_.complete(group[i]->request.tenant.name, prefix,
                       /*success=*/true, replies[i].latency_seconds);
    group[i]->promise.set_value(std::move(replies[i]));
  }
}

}  // namespace psc::service
