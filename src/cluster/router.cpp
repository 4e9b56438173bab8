#include "cluster/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/result.hpp"
#include "net/client.hpp"

namespace psc::cluster {

namespace {

/// Concurrent per-query shard workers (see run_fanout): sized so that
/// even with every worker hedging, connections per replica stay well
/// under psc_serve's default 64-connection cap.
constexpr std::size_t kMaxFanoutWorkers = 16;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// True when `requested` names the router's bank: either exactly, or as
/// a path ending in "/<configured>" (the net::Server prepends its
/// --bank-root to the wire prefix before submitting).
bool prefix_matches(const std::string& requested,
                    const std::string& configured) {
  if (requested == configured) return true;
  return requested.size() > configured.size() &&
         requested.compare(requested.size() - configured.size(),
                           configured.size(), configured) == 0 &&
         requested[requested.size() - configured.size() - 1] == '/';
}

/// Re-serializes a parsed bank as FASTA for the replica request. A
/// round-trip through read_fasta is id- and residue-stable (ids carry
/// no whitespace once parsed), so the replica sees the identical bank
/// the router was given.
std::string bank_to_fasta(const bio::SequenceBank& bank) {
  std::string out;
  for (const bio::SequenceView sequence : bank) {
    out += '>';
    out += sequence.id();
    out += '\n';
    out += sequence.to_letters();
    out += '\n';
  }
  return out;
}

/// The wire mapping of a quota failure: admission-gate refusals carry
/// their own code so a client can tell "the cluster is saturated" from
/// "my tenant is over quota".
net::WireErrorCode quota_error_code(const service::QuotaError& error) {
  return error.kind() == service::QuotaKind::kAdmission
             ? net::WireErrorCode::kAdmissionRejected
             : net::WireErrorCode::kQuotaExceeded;
}

}  // namespace

/// The shared state of one shard's attempt race: the primary and any
/// hedge write here, the per-shard coordinator waits here. First valid
/// reply wins; the coordinator then shuts every attempt socket down so
/// losers blocked in recv drain immediately.
struct Router::Race {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::optional<service::QueryResult> result;
  bool have_error = false;
  net::WireErrorCode error_code = net::WireErrorCode::kShardUnavailable;
  std::string error_message;
  std::size_t outstanding = 0;
  std::vector<std::shared_ptr<net::Client>> clients;
};

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      manifest_(store::load_manifest(
          store::manifest_path(config_.manifest_prefix))),
      table_(config_.replicas),
      health_checker_(table_, config_.health),
      registry_(config_.tenants) {
  if (config_.bank_prefix.empty()) {
    throw std::invalid_argument("router: bank_prefix must be set");
  }
  // Static coverage check: a shard no replica even *claims* is a
  // configuration error, caught at startup, not at the first query.
  const std::size_t shard_count = manifest_.shards.size();
  std::vector<bool> covered(shard_count, false);
  for (const ReplicaEndpoint& endpoint : config_.replicas) {
    if (endpoint.all_shards) {
      // An "=all" claim covers every shard, present and appended-later;
      // nothing to range-check.
      covered.assign(shard_count, true);
      continue;
    }
    for (const std::size_t shard : endpoint.shards) {
      if (shard >= shard_count) {
        throw std::invalid_argument(
            "router: replica " + endpoint.name() + " claims shard " +
            std::to_string(shard) + " but the manifest has only " +
            std::to_string(shard_count));
      }
      covered[shard] = true;
    }
  }
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    if (!covered[shard]) {
      throw std::invalid_argument("router: no replica serves shard " +
                                  std::to_string(shard));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.store_revision = manifest_.revision;
  }
  // Route the first query on evidence: one synchronous probe round,
  // then the periodic checker keeps the table current.
  health_checker_.probe_all();
  health_checker_.start();
}

Router::~Router() {
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    stopping_ = true;
    drain_cv_.wait(lock, [this] { return active_ == 0; });
  }
  health_checker_.stop();
}

std::future<service::ServiceResponse> Router::submit_search(
    service::ServiceRequest request) {
  request.tenant.name = service::normalize_tenant_name(request.tenant.name);
  auto promise = std::make_shared<std::promise<service::ServiceResponse>>();
  std::future<service::ServiceResponse> future = promise->get_future();
  // Per-tenant quota gates first (qps token, in-flight), then the
  // cluster-wide cap. A refusal at either fails the future with a typed
  // error immediately -- the caller's connection stays usable.
  try {
    registry_.admit(request.tenant.name, request.query.total_residues(),
                    request.bank_prefix);
  } catch (const service::QuotaError& e) {
    promise->set_exception(std::make_exception_ptr(
        net::WireError(quota_error_code(e), e.what())));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (stopping_) {
      registry_.cancel(request.tenant.name, request.bank_prefix);
      promise->set_exception(std::make_exception_ptr(net::WireError(
          net::WireErrorCode::kShutdown, "router is stopping")));
      return future;
    }
    if (config_.max_active_fanouts > 0 &&
        active_ >= config_.max_active_fanouts) {
      registry_.cancel(request.tenant.name, request.bank_prefix);
      registry_.record_rejection(request.tenant.name);
      promise->set_exception(std::make_exception_ptr(net::WireError(
          net::WireErrorCode::kAdmissionRejected,
          "router admission: " + std::to_string(active_) +
              " fan-outs already active (cap " +
              std::to_string(config_.max_active_fanouts) + ")")));
      return future;
    }
    ++active_;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries_submitted;
  }
  // One worker thread per submitted query: the fan-out inside it is
  // already parallel per shard, and the promise/active_ pair (not the
  // thread handle) carries completion, so the thread detaches and the
  // destructor drains through active_.
  std::thread([this, promise, request = std::move(request)]() mutable {
    const auto start = Clock::now();
    std::optional<service::ServiceResponse> response;
    std::exception_ptr error;
    try {
      response = run_fanout(request);
      response->latency_seconds = seconds_since(start);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.queries_completed;
        ++stats_.batches;
        stats_.max_batch = std::max<std::size_t>(stats_.max_batch, 1);
        stats_.total_latency_seconds += response->latency_seconds;
        stats_.total_batch_latency_seconds += response->latency_seconds;
        stats_.max_batch_latency_seconds = std::max(
            stats_.max_batch_latency_seconds, response->latency_seconds);
      }
      registry_.complete(request.tenant.name, request.bank_prefix,
                         /*success=*/true, response->latency_seconds);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.queries_failed;
      }
      registry_.complete(request.tenant.name, request.bank_prefix,
                         /*success=*/false, 0.0);
      error = std::current_exception();
    }
    {
      // Release the admission slot before the caller can see the
      // result, so a submit made after get() returns is never refused
      // for this fan-out. Notify under the lock: the destructor destroys
      // drain_cv_ as soon as its wait sees active_ == 0, and the wait
      // cannot return before this worker releases drain_mutex_ -- which
      // is after the broadcast completes. Notifying outside the lock
      // would let the condvar die mid-broadcast.
      std::lock_guard<std::mutex> lock(drain_mutex_);
      --active_;
      drain_cv_.notify_all();
    }
    // The router may be gone from here on: touch only the promise.
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(*response));
    }
  }).detach();
  return future;
}

service::ServiceStats Router::stats_snapshot() const {
  service::ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.mean_batch_latency_seconds =
      snapshot.batches > 0 ? snapshot.total_batch_latency_seconds /
                                 static_cast<double>(snapshot.batches)
                           : 0.0;
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    snapshot.queue_depth = active_;
  }
  snapshot.replicas = table_.snapshot();
  snapshot.tenants = registry_.snapshot();
  return snapshot;
}

std::uint64_t Router::refresh_manifest(const std::string& bank_prefix) {
  if (!prefix_matches(bank_prefix, config_.bank_prefix)) {
    throw net::WireError(
        net::WireErrorCode::kBankNotFound,
        "router serves bank '" + config_.bank_prefix + "', not '" +
            bank_prefix + "'");
  }
  // Load and validate outside the manifest lock (disk I/O); only the
  // final swap and the extension check against the served generation
  // need it.
  store::ShardManifest incoming =
      store::load_manifest(store::manifest_path(config_.manifest_prefix));

  std::unique_lock<std::mutex> lock(manifest_mutex_);
  if (incoming.revision == manifest_.revision) {
    // Idempotent: the served generation is already the on-disk one
    // (double refresh, or a refresh racing another). Not counted as an
    // adoption.
    return manifest_.revision;
  }
  if (incoming.revision < manifest_.revision) {
    throw net::WireError(
        net::WireErrorCode::kRevisionMismatch,
        "manifest revision went backwards: serving " +
            std::to_string(manifest_.revision) + ", disk has " +
            std::to_string(incoming.revision));
  }
  // Strict extension: an append only ever adds tail slots. A changed
  // leading slot means the store was rebuilt in place, and adopting it
  // would silently remap sequence ids mid-stream -- refuse, typed.
  if (incoming.kind != manifest_.kind ||
      incoming.shards.size() < manifest_.shards.size()) {
    throw net::WireError(net::WireErrorCode::kRevisionMismatch,
                         "on-disk manifest is not an extension of the "
                         "generation being served (rebuild the cluster)");
  }
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    const store::ShardInfo& served = manifest_.shards[i];
    const store::ShardInfo& fresh = incoming.shards[i];
    if (fresh.sequence_base != served.sequence_base ||
        fresh.sequence_count != served.sequence_count ||
        fresh.residues != served.residues ||
        fresh.bank_checksum != served.bank_checksum) {
      throw net::WireError(
          net::WireErrorCode::kRevisionMismatch,
          "shard " + std::to_string(i) +
              " changed between revisions; an append may only add tail "
              "shards (rebuild the cluster)");
    }
  }
  // Every shard of the new generation -- the appended tail above all --
  // must have a configured replica, or queries would start failing with
  // kShardUnavailable on every fan-out.
  for (std::size_t shard = manifest_.shards.size();
       shard < incoming.shards.size(); ++shard) {
    bool claimed = false;
    for (const ReplicaEndpoint& endpoint : config_.replicas) {
      if (endpoint.serves(shard)) {
        claimed = true;
        break;
      }
    }
    if (!claimed) {
      throw net::WireError(
          net::WireErrorCode::kShardUnavailable,
          "appended shard " + std::to_string(shard) +
              " has no configured replica (use '=all' claims for "
              "live-ingest clusters)");
    }
  }
  const std::uint64_t adopted = incoming.revision;
  manifest_ = std::move(incoming);
  lock.unlock();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.manifest_refreshes;
    stats_.store_revision = std::max(stats_.store_revision, adopted);
  }
  return adopted;
}

service::ServiceResponse Router::run_fanout(
    const service::ServiceRequest& request) {
  if (!prefix_matches(request.bank_prefix, config_.bank_prefix)) {
    throw net::WireError(
        net::WireErrorCode::kBankNotFound,
        "router serves bank '" + config_.bank_prefix + "', not '" +
            request.bank_prefix + "'");
  }

  // Pin this fan-out to one manifest generation: a concurrent
  // refresh_manifest swaps the member, but every shard count, residue
  // total and sequence base below comes from this coherent copy.
  const store::ShardManifest manifest = this->manifest();

  const std::string query_fasta = bank_to_fasta(request.query);
  service::QueryOptions options = request.options;
  // The merge-identity linchpin: every per-shard pass prices E-values
  // against the whole set's residue total, exactly as the in-process
  // fan-out does, so each shard's surviving matches (and their encoded
  // doubles) equal the unsharded pass's slice of them.
  if (options.search_space_residues == 0.0) {
    options.search_space_residues =
        static_cast<double>(manifest.total_residues);
  }

  const std::size_t shard_count = manifest.shards.size();
  std::vector<service::QueryResult> pieces(shard_count);
  std::vector<std::exception_ptr> errors(shard_count);
  // Bounded fan-out: a store can shard into far more pieces than a
  // replica accepts connections (psc_serve defaults to 64), and one
  // thread-plus-socket per shard at once would trip that limit and read
  // as the replica being down. Each worker holds at most one attempt
  // (plus its hedge) open at a time, so concurrent connections per
  // replica stay under 2 * kMaxFanoutWorkers.
  const std::size_t worker_count =
      std::min<std::size_t>(shard_count, kMaxFanoutWorkers);
  std::atomic<std::size_t> next_shard{0};
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  const std::string& tenant = request.tenant.name;
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([this, shard_count, &next_shard, &tenant,
                          &query_fasta, &options, &pieces, &errors] {
      for (;;) {
        const std::size_t shard =
            next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= shard_count) return;
        try {
          pieces[shard] = query_shard(shard, tenant, query_fasta, options);
        } catch (...) {
          errors[shard] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& thread : workers) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // The same merge service/shard_query performs in process: remap
  // subject ids through the manifest bases, concatenate, one total sort.
  service::QueryResult merged;
  merged.batch_size = 1;
  merged.bank_was_resident = true;
  std::size_t total = 0;
  for (const service::QueryResult& piece : pieces) {
    total += piece.matches.size();
  }
  merged.matches.reserve(total);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::uint64_t base = manifest.shards[shard].sequence_base;
    merged.bank_was_resident =
        merged.bank_was_resident && pieces[shard].bank_was_resident;
    for (core::Match match : pieces[shard].matches) {
      match.bank1_sequence += static_cast<std::uint32_t>(base);
      merged.matches.push_back(match);
    }
  }
  std::sort(merged.matches.begin(), merged.matches.end(), core::match_order);
  return merged;
}

service::QueryResult Router::query_shard(
    std::size_t shard, const std::string& tenant,
    const std::string& query_fasta, const service::QueryOptions& options) {
  net::WireErrorCode last_code = net::WireErrorCode::kShardUnavailable;
  std::string last_error = "no attempt was made";
  double backoff = config_.retry_backoff_seconds;
  const std::size_t rounds = std::max<std::size_t>(1, config_.max_attempts);

  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0 && backoff > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff));
      backoff *= 2.0;
    }
    const std::vector<std::size_t> candidates = table_.live_candidates(shard);
    if (candidates.empty()) {
      throw net::WireError(
          net::WireErrorCode::kShardUnavailable,
          "shard " + std::to_string(shard) + " has no live replica (last: " +
              last_error + ")");
    }

    auto race = std::make_shared<Race>();
    race->outstanding = 1;
    std::vector<std::thread> attempts;
    const AttemptKind kind =
        round == 0 ? AttemptKind::kPrimary : AttemptKind::kRetry;
    attempts.emplace_back([this, race, replica = candidates[0], shard, kind,
                           &query_fasta, &options] {
      run_attempt(race, replica, shard, kind, query_fasta, options);
    });

    std::unique_lock<std::mutex> lock(race->mutex);
    if (config_.hedge_delay_seconds > 0.0 && candidates.size() > 1) {
      race->cv.wait_for(
          lock, std::chrono::duration<double>(config_.hedge_delay_seconds),
          [&] { return race->done || race->outstanding == 0; });
      if (!race->done && race->outstanding > 0 &&
          registry_.try_spend_hedge(tenant)) {
        // The primary is straggling, another live replica holds the
        // shard, and the tenant's hedge budget covers a duplicate:
        // first valid reply wins. A tenant out of budget keeps its
        // primary attempt (hedges_denied counts the refusal).
        ++race->outstanding;
        const std::size_t hedge_replica = candidates[1];
        lock.unlock();
        attempts.emplace_back([this, race, hedge_replica, shard,
                               &query_fasta, &options] {
          run_attempt(race, hedge_replica, shard, AttemptKind::kHedge,
                      query_fasta, options);
        });
        lock.lock();
      }
    }
    race->cv.wait(lock, [&] { return race->done || race->outstanding == 0; });
    const bool won = race->done;
    // Tear every attempt socket down (the winner's is spent anyway):
    // a loser blocked in recv wakes with a typed error and drains.
    for (const std::shared_ptr<net::Client>& client : race->clients) {
      client->shutdown_now();
    }
    if (race->have_error) {
      last_code = race->error_code;
      last_error = race->error_message;
    }
    lock.unlock();
    for (std::thread& thread : attempts) thread.join();
    if (won) return std::move(*race->result);
  }
  throw net::WireError(last_code, "shard " + std::to_string(shard) +
                                      " failed after " +
                                      std::to_string(rounds) +
                                      " attempt round(s): " + last_error);
}

void Router::run_attempt(const std::shared_ptr<Race>& race,
                         std::size_t replica, std::size_t shard,
                         AttemptKind kind, const std::string& query_fasta,
                         const service::QueryOptions& options) {
  const ReplicaEndpoint& endpoint = table_.endpoint(replica);
  table_.attempt_started(replica, kind);
  const auto start = Clock::now();
  try {
    net::ClientConfig client_config;
    client_config.host = endpoint.host;
    client_config.port = endpoint.port;
    client_config.timeout_seconds = config_.request_timeout_seconds;
    auto client = std::make_shared<net::Client>(client_config);
    {
      std::lock_guard<std::mutex> lock(race->mutex);
      if (race->done) {  // decided while we were connecting
        --race->outstanding;
        race->cv.notify_all();
        table_.attempt_cancelled(replica);
        return;
      }
      race->clients.push_back(client);
    }
    service::QueryResult result = client->search(
        store::shard_prefix(config_.bank_prefix, shard), query_fasta,
        options);
    table_.attempt_finished(replica, true, seconds_since(start));
    std::lock_guard<std::mutex> lock(race->mutex);
    if (!race->done) {
      race->done = true;
      race->result = std::move(result);
    }
    --race->outstanding;
    race->cv.notify_all();
  } catch (const net::WireError& e) {
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(race->mutex);
      // After the race is decided the winner shuts our socket down, so
      // a failure here is expected teardown, not replica trouble.
      cancelled = race->done;
      if (!cancelled) {
        race->have_error = true;
        race->error_code = e.code();
        race->error_message = endpoint.name() + ": " + e.what();
      }
      --race->outstanding;
      race->cv.notify_all();
    }
    if (cancelled) {
      table_.attempt_cancelled(replica);
      return;
    }
    table_.attempt_finished(replica, false, seconds_since(start));
    if (e.code() == net::WireErrorCode::kUnreachable ||
        e.code() == net::WireErrorCode::kTimeout) {
      // Connection-level verdicts take the replica out of rotation on
      // the spot; the health checker brings it back when it answers.
      table_.set_up(replica, false);
    }
  } catch (const std::exception& e) {
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(race->mutex);
      cancelled = race->done;
      if (!cancelled) {
        race->have_error = true;
        race->error_code = net::WireErrorCode::kInternal;
        race->error_message = endpoint.name() + ": " + e.what();
      }
      --race->outstanding;
      race->cv.notify_all();
    }
    if (cancelled) {
      table_.attempt_cancelled(replica);
      return;
    }
    table_.attempt_finished(replica, false, seconds_since(start));
  }
}

}  // namespace psc::cluster
