// End-to-end tests of the cluster coordinator over real loopback
// sockets: psc_serve-shaped replicas (net::Server over SearchService,
// scoped to shard subsets with allowed_prefixes), a Router fanning
// across them, and -- the load-bearing property -- byte-for-byte
// equality between the merged reply and a single unsharded node. Plus
// the failure policy: dead replicas of redundantly-held shards are
// transparent, an uncovered shard is a typed error (never a hang), and
// a stalling replica is overtaken by a hedged duplicate.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/search_service.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace psc::cluster {
namespace {

/// A sharded reference workload under the test temp dir (the replicas'
/// bank root): the usual planted-gene recipe, saved unsharded and
/// sharded. Removes every file on destruction.
struct ClusterWorkload {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::SequenceBank genome_bank{bio::SequenceKind::kProtein};
  std::string name;          ///< wire-relative sharded prefix
  std::string prefix;        ///< absolute sharded prefix
  std::string plain_prefix;  ///< absolute unsharded prefix
  std::size_t shard_count = 0;

  ClusterWorkload(std::uint64_t seed, const std::string& bank_name,
                  std::uint64_t shard_cap)
      : name(bank_name) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = 20000;
    config.seed = seed;
    bio::Sequence genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    3000, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[2], divergence, rng),
                    9001, false, rng);
    genome_bank = bio::frames_to_bank(bio::translate_six_frames(genome));

    const index::SeedModel model = index::SeedModel::subset_w4();
    prefix = psc::test::temp_dir() + "/" + name;
    plain_prefix = prefix + "_plain";
    const index::IndexTable table(genome_bank, model);
    const std::uint64_t checksum =
        store::save_bank(plain_prefix + ".pscbank", genome_bank);
    store::save_index(plain_prefix + ".pscidx", table, model, checksum);
    shard_count =
        store::write_sharded_store(prefix, genome_bank, model, shard_cap)
            .shards.size();
  }

  ~ClusterWorkload() {
    std::remove((plain_prefix + ".pscbank").c_str());
    std::remove((plain_prefix + ".pscidx").c_str());
    std::remove(store::manifest_path(prefix).c_str());
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::string pair = store::shard_prefix(prefix, s);
      std::remove((pair + ".pscbank").c_str());
      std::remove((pair + ".pscidx").c_str());
    }
  }

  std::string fasta() const {
    std::ostringstream out;
    for (const bio::Sequence& protein : proteins) {
      out << ">" << protein.id() << "\n" << protein.to_letters() << "\n";
    }
    return out.str();
  }

  /// Every shard index, for replicas that hold the whole store.
  std::vector<std::size_t> all_shards() const {
    std::vector<std::size_t> shards(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) shards[s] = s;
    return shards;
  }

  /// The unsharded single-node reference bytes for `options`.
  std::vector<std::uint8_t> reference_bytes(
      const service::QueryOptions& options) const {
    service::SearchService service;
    service::ServiceRequest request;
    request.query = proteins;
    request.bank_prefix = plain_prefix;
    request.options = options;
    const service::QueryResult result =
        service.submit(std::move(request)).get();
    return core::encode_matches(result.matches);
  }
};

/// One in-process psc_serve replica: its own SearchService behind a
/// net::Server whose allowlist scopes it to a shard subset, exactly as
/// `psc_serve --shards` does.
struct Replica {
  std::unique_ptr<service::SearchService> service;
  std::unique_ptr<net::Server> server;

  Replica(const std::string& bank_name,
          const std::vector<std::size_t>& shards) {
    net::ServerConfig config;
    config.bank_root = psc::test::temp_dir();
    for (const std::size_t shard : shards) {
      config.allowed_prefixes.push_back(store::shard_prefix(bank_name, shard));
    }
    service = std::make_unique<service::SearchService>();
    server = std::make_unique<net::Server>(*service, config);
    server->start();
  }

  std::uint16_t port() const { return server->port(); }
};

/// An endpoint that is guaranteed dead: binds an ephemeral port to learn
/// its number, then releases it, so connecting gets ECONNREFUSED.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// A replica that looks healthy (answers Ping) but never answers a
/// Search: the straggler the hedging policy exists for.
class StallingReplica {
 public:
  StallingReplica() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~StallingReplica() {
    stopping_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept
    accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& thread : connection_threads_) thread.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const int fd : connection_fds_) ::close(fd);
    }
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void accept_loop() {
    while (!stopping_) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listener shut down
      std::lock_guard<std::mutex> lock(mutex_);
      connection_fds_.push_back(fd);
      connection_threads_.emplace_back([this, fd] { serve_connection(fd); });
    }
  }

  void serve_connection(int fd) {
    net::FrameReader reader(std::uint64_t{1} << 30);
    std::uint8_t buffer[64 * 1024];
    for (;;) {
      while (auto frame = reader.next()) {
        if (frame->type == static_cast<std::uint16_t>(net::MessageType::kPing)) {
          const std::vector<std::uint8_t> pong =
              net::encode_frame(net::MessageType::kPong);
          const ssize_t sent =
              ::send(fd, pong.data(), pong.size(), MSG_NOSIGNAL);
          if (sent < 0) return;
        }
        // kSearch: swallow it and say nothing, forever.
      }
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return;
      reader.feed({buffer, static_cast<std::size_t>(n)});
    }
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
};

ReplicaEndpoint endpoint_for(std::uint16_t port,
                             std::vector<std::size_t> shards) {
  ReplicaEndpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = port;
  endpoint.shards = std::move(shards);
  return endpoint;
}

RouterConfig base_config(const ClusterWorkload& workload) {
  RouterConfig config;
  config.manifest_prefix = workload.prefix;
  config.bank_prefix = workload.name;
  config.retry_backoff_seconds = 0.01;
  config.request_timeout_seconds = 10.0;
  config.health.interval_seconds = 60.0;  // startup probe only
  config.health.timeout_seconds = 2.0;
  return config;
}

service::ServiceRequest request_for(const ClusterWorkload& workload,
                                    const service::QueryOptions& options) {
  service::ServiceRequest request;
  request.query = workload.proteins;
  request.bank_prefix = workload.name;
  request.options = options;
  return request;
}

TEST(RouterTest, MergedReplyIsByteIdenticalThroughTheFullStack) {
  const ClusterWorkload workload(60, "cluster_ident", 700);
  ASSERT_GE(workload.shard_count, 2u);
  service::QueryOptions options;
  options.with_traceback = true;
  const std::vector<std::uint8_t> reference =
      workload.reference_bytes(options);

  // Disjoint halves: every merged match crosses a replica boundary or
  // a shard-base remap, so identity here exercises the whole chain.
  std::vector<std::size_t> first_half, second_half;
  for (std::size_t s = 0; s < workload.shard_count; ++s) {
    (s < workload.shard_count / 2 ? first_half : second_half).push_back(s);
  }
  Replica replica_a(workload.name, first_half);
  Replica replica_b(workload.name, second_half);

  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(replica_a.port(), first_half),
                     endpoint_for(replica_b.port(), second_half)};
  Router router(config);

  // Straight through the backend interface...
  const service::QueryResult direct =
      router.submit_search(request_for(workload, options)).get();
  EXPECT_EQ(core::encode_matches(direct.matches), reference);

  // ...and through the full wire stack, psc_client-style.
  net::ServerConfig front_config;
  front_config.bank_root = ".";
  front_config.allowed_prefixes = {workload.name};
  net::Server front(router, front_config);
  front.start();
  net::ClientConfig client_config;
  client_config.port = front.port();
  client_config.timeout_seconds = 20.0;
  net::Client client(client_config);
  const service::QueryResult remote =
      client.search(workload.name, workload.fasta(), options);
  EXPECT_EQ(core::encode_matches(remote.matches), reference);

  // The stats frame carries the per-replica table (codec v3) end to end.
  const service::ServiceStats stats = client.stats();
  EXPECT_EQ(stats.queries_completed, 2u);
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_EQ(stats.replicas[0].endpoint,
            "127.0.0.1:" + std::to_string(replica_a.port()));
  EXPECT_TRUE(stats.replicas[0].up);
  EXPECT_TRUE(stats.replicas[1].up);
  EXPECT_GT(stats.replicas[0].requests, 0u);
  EXPECT_GT(stats.replicas[1].requests, 0u);
  front.stop();
}

TEST(RouterTest, DeadReplicaOfRedundantlyHeldShardsIsTransparent) {
  const ClusterWorkload workload(61, "cluster_redundant", 700);
  ASSERT_GE(workload.shard_count, 2u);
  service::QueryOptions options;
  options.with_traceback = true;
  const std::vector<std::uint8_t> reference =
      workload.reference_bytes(options);

  // The dead endpoint claims every shard, but so does the live one: the
  // startup probe benches the corpse and the query must not notice.
  Replica replica(workload.name, workload.all_shards());
  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(dead_port(), workload.all_shards()),
                     endpoint_for(replica.port(), workload.all_shards())};
  Router router(config);

  const service::QueryResult merged =
      router.submit_search(request_for(workload, options)).get();
  EXPECT_EQ(core::encode_matches(merged.matches), reference);

  const service::ServiceStats stats = router.stats_snapshot();
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_FALSE(stats.replicas[0].up);
  EXPECT_TRUE(stats.replicas[1].up);
  EXPECT_EQ(stats.replicas[0].requests, 0u);  // never even attempted
}

TEST(RouterTest, ShardWithNoLiveReplicaIsATypedErrorNotAHang) {
  const ClusterWorkload workload(62, "cluster_uncovered", 700);
  ASSERT_GE(workload.shard_count, 2u);

  // Shard 0's only holder is dead; the rest of the store is healthy.
  std::vector<std::size_t> rest;
  for (std::size_t s = 1; s < workload.shard_count; ++s) rest.push_back(s);
  Replica replica(workload.name, rest);
  RouterConfig config = base_config(workload);
  config.max_attempts = 2;
  config.replicas = {endpoint_for(dead_port(), {0}),
                     endpoint_for(replica.port(), rest)};
  Router router(config);

  auto future = router.submit_search(request_for(workload, {}));
  try {
    future.get();
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kShardUnavailable);
  }

  // The same failure through the wire stack arrives as a typed error
  // frame on an intact connection.
  net::ServerConfig front_config;
  front_config.bank_root = ".";
  net::Server front(router, front_config);
  front.start();
  net::ClientConfig client_config;
  client_config.port = front.port();
  client_config.timeout_seconds = 20.0;
  net::Client client(client_config);
  try {
    client.search(workload.name, workload.fasta());
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kShardUnavailable);
  }
  client.ping();  // connection survived the typed error
  front.stop();
}

TEST(RouterTest, ForeignBankPrefixIsBankNotFound) {
  const ClusterWorkload workload(63, "cluster_foreign", 0);
  ASSERT_EQ(workload.shard_count, 1u);
  Replica replica(workload.name, {0});
  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(replica.port(), {0})};
  Router router(config);

  service::ServiceRequest request = request_for(workload, {});
  request.bank_prefix = "some_other_bank";
  try {
    router.submit_search(std::move(request)).get();
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kBankNotFound);
  }
}

TEST(RouterTest, ReplicaConfigIsValidatedAgainstTheManifestAtStartup) {
  const ClusterWorkload workload(64, "cluster_invalid", 700);
  ASSERT_GE(workload.shard_count, 2u);

  // A replica claiming a shard the manifest does not have...
  RouterConfig config = base_config(workload);
  config.replicas = {
      endpoint_for(1, workload.all_shards()),
      endpoint_for(2, {workload.shard_count})};
  EXPECT_THROW(Router{config}, std::invalid_argument);

  // ...and a manifest shard no replica claims: both die in the
  // constructor, not at the first query.
  std::vector<std::size_t> missing_last;
  for (std::size_t s = 0; s + 1 < workload.shard_count; ++s) {
    missing_last.push_back(s);
  }
  config.replicas = {endpoint_for(1, missing_last)};
  EXPECT_THROW(Router{config}, std::invalid_argument);
}

TEST(RouterTest, HedgeOvertakesAStallingReplica) {
  const ClusterWorkload workload(65, "cluster_hedge", 0);
  ASSERT_EQ(workload.shard_count, 1u);
  service::QueryOptions options;
  options.with_traceback = true;
  const std::vector<std::uint8_t> reference =
      workload.reference_bytes(options);

  // The staller answers health probes, so it stays in rotation and (as
  // the lower index at equal load) takes the primary attempt; only the
  // hedge can finish the query.
  StallingReplica staller;
  Replica replica(workload.name, {0});
  RouterConfig config = base_config(workload);
  config.hedge_delay_seconds = 0.05;
  config.replicas = {endpoint_for(staller.port(), {0}),
                     endpoint_for(replica.port(), {0})};
  Router router(config);

  const service::QueryResult merged =
      router.submit_search(request_for(workload, options)).get();
  EXPECT_EQ(core::encode_matches(merged.matches), reference);

  const service::ServiceStats stats = router.stats_snapshot();
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_EQ(stats.replicas[0].hedges, 0u);  // the primary went here
  EXPECT_EQ(stats.replicas[1].hedges, 1u);  // the winner was the hedge
  EXPECT_EQ(stats.replicas[1].failures, 0u);
  // The stalled primary was cancelled, not blamed: no failure recorded,
  // and its inflight slot drained when the winner tore the race down.
  EXPECT_EQ(stats.replicas[0].failures, 0u);
  EXPECT_EQ(stats.replicas[0].inflight, 0u);
  EXPECT_TRUE(stats.replicas[0].up);
}

TEST(RouterTest, TenantQpsQuotaRejectsAtTheRouterWithTypedError) {
  const ClusterWorkload workload(66, "cluster_quota", 0);
  Replica replica(workload.name, {0});
  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(replica.port(), {0})};
  // One query/sec, bucket of one token: of two back-to-back submits the
  // second MUST fail fast with the per-tenant code, before any replica
  // sees a byte of it.
  config.tenants.default_policy.max_qps = 1.0;
  Router router(config);

  auto first = router.submit_search(request_for(workload, {}));
  auto second = router.submit_search(request_for(workload, {}));
  EXPECT_FALSE(first.get().matches.empty());
  try {
    second.get();
    FAIL() << "expected kQuotaExceeded";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kQuotaExceeded);
  }

  const service::ServiceStats stats = router.stats_snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].name, "default");
  EXPECT_EQ(stats.tenants[0].admitted, 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].queued, 0u);
}

TEST(RouterTest, ClusterAdmissionCapRejectsFastNotQueues) {
  const ClusterWorkload workload(67, "cluster_admission", 0);
  // The only replica swallows searches, so the first fan-out stays
  // active until its (short) timeout -- long enough to prove the second
  // submit is refused IMMEDIATELY rather than queued behind it.
  StallingReplica staller;
  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(staller.port(), {0})};
  config.max_active_fanouts = 1;
  config.max_attempts = 1;
  config.request_timeout_seconds = 0.4;
  config.hedge_delay_seconds = 0.0;
  Router router(config);

  auto occupant = router.submit_search(request_for(workload, {}));
  auto rejected = router.submit_search(request_for(workload, {}));
  try {
    rejected.get();
    FAIL() << "expected kAdmissionRejected";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kAdmissionRejected);
  }
  // The occupant fails on its own terms (the staller never answers);
  // the admission gate must not have eaten its slot permanently.
  EXPECT_THROW(occupant.get(), net::WireError);

  const service::ServiceStats stats = router.stats_snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  EXPECT_EQ(stats.tenants[0].queued, 0u);

  // With the gate idle again, a submit is admitted (and then fails on
  // the dead cluster, which is fine -- admission is what we test).
  auto after = router.submit_search(request_for(workload, {}));
  try {
    after.get();
  } catch (const net::WireError& e) {
    EXPECT_NE(e.code(), net::WireErrorCode::kAdmissionRejected);
  }
}

TEST(RouterTest, HedgeBudgetZeroKeepsThePrimaryAndCountsTheDenial) {
  const ClusterWorkload workload(68, "cluster_hedge_budget", 0);
  service::QueryOptions options;
  options.with_traceback = true;
  const std::vector<std::uint8_t> reference =
      workload.reference_bytes(options);

  // Same topology as the hedge test -- a stalling primary and a healthy
  // second replica -- but the tenant's hedge budget is zero: the rescue
  // must come from the RETRY path (after the primary times out), never
  // from a hedge, and the denial is visible in the tenant row.
  StallingReplica staller;
  Replica replica(workload.name, {0});
  RouterConfig config = base_config(workload);
  config.hedge_delay_seconds = 0.05;
  config.request_timeout_seconds = 0.5;
  config.replicas = {endpoint_for(staller.port(), {0}),
                     endpoint_for(replica.port(), {0})};
  config.tenants.default_policy.hedges_per_second = 0.0;
  Router router(config);

  const service::QueryResult merged =
      router.submit_search(request_for(workload, options)).get();
  EXPECT_EQ(core::encode_matches(merged.matches), reference);

  const service::ServiceStats stats = router.stats_snapshot();
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_EQ(stats.replicas[0].hedges, 0u);
  EXPECT_EQ(stats.replicas[1].hedges, 0u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].hedges, 0u);
  EXPECT_GE(stats.tenants[0].hedges_denied, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
}

TEST(RouterTest, RefreshAdoptsAppendedTailThroughAllClaims) {
  const ClusterWorkload workload(69, "cluster_refresh", 700);
  ASSERT_GE(workload.shard_count, 2u);
  const index::SeedModel model = index::SeedModel::subset_w4();
  service::QueryOptions options;
  options.with_traceback = true;

  // An unrestricted replica (no allowlist), claimed with "=all" so it
  // also covers shards that do not exist yet.
  Replica replica(workload.name, {});
  RouterConfig config = base_config(workload);
  config.replicas = parse_replica_list(
      "127.0.0.1:" + std::to_string(replica.port()) + "=all");
  Router router(config);
  EXPECT_EQ(router.manifest().revision, 1u);

  const service::QueryResult before =
      router.submit_search(request_for(workload, options)).get();
  ASSERT_FALSE(before.matches.empty());

  // Append a delta with a planted match and adopt it at the router.
  util::Xoshiro256 rng(70);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.05;
  divergence.indel_rate = 0.0;
  bio::SequenceBank delta(bio::SequenceKind::kProtein);
  delta.add(sim::mutate_protein(workload.proteins[3], divergence, rng));
  const store::ShardManifest extended =
      store::append_sharded_store(workload.prefix, delta, model);
  EXPECT_EQ(router.refresh_manifest(workload.name), 2u);
  EXPECT_EQ(router.manifest().revision, 2u);
  EXPECT_EQ(router.manifest().shards.size(), workload.shard_count + 1);

  // The adopted generation answers byte-identically to an unsharded
  // single node over the combined bank -- the live-ingest acceptance
  // bar, through the whole cluster stack.
  bio::SequenceBank combined(bio::SequenceKind::kProtein);
  for (const bio::Sequence& s : workload.genome_bank) combined.add(s);
  for (const bio::Sequence& s : delta) combined.add(s);
  const std::string combined_prefix =
      psc::test::temp_dir() + "/cluster_refresh_combined";
  const index::IndexTable combined_table(combined, model);
  const std::uint64_t combined_checksum =
      store::save_bank(combined_prefix + ".pscbank", combined);
  store::save_index(combined_prefix + ".pscidx", combined_table, model,
                    combined_checksum);
  service::SearchService single;
  service::ServiceRequest reference_request;
  reference_request.query = workload.proteins;
  reference_request.bank_prefix = combined_prefix;
  reference_request.options = options;
  const service::QueryResult reference =
      single.submit(std::move(reference_request)).get();

  const service::QueryResult after =
      router.submit_search(request_for(workload, options)).get();
  EXPECT_EQ(core::encode_matches(after.matches),
            core::encode_matches(reference.matches));
  EXPECT_NE(core::encode_matches(after.matches),
            core::encode_matches(before.matches));

  // Idempotent re-refresh: same revision, no second adoption counted.
  EXPECT_EQ(router.refresh_manifest(workload.name), 2u);
  const service::ServiceStats stats = router.stats_snapshot();
  EXPECT_EQ(stats.manifest_refreshes, 1u);
  EXPECT_EQ(stats.store_revision, 2u);

  // A foreign prefix is the same typed error Search gives.
  try {
    router.refresh_manifest("some_other_bank");
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kBankNotFound);
  }

  const std::string tail =
      store::shard_prefix(workload.prefix, extended.shards.size() - 1);
  std::remove((tail + ".pscbank").c_str());
  std::remove((tail + ".pscidx").c_str());
  std::remove((combined_prefix + ".pscbank").c_str());
  std::remove((combined_prefix + ".pscidx").c_str());
}

TEST(RouterTest, RefreshRejectsUncoveredTailAndNonExtension) {
  const ClusterWorkload workload(71, "cluster_refresh_guard", 700);
  ASSERT_GE(workload.shard_count, 2u);
  const index::SeedModel model = index::SeedModel::subset_w4();

  // Explicit claims only: the replica covers today's shards but makes
  // no promise about tomorrow's tail.
  Replica replica(workload.name, workload.all_shards());
  RouterConfig config = base_config(workload);
  config.replicas = {endpoint_for(replica.port(), workload.all_shards())};
  Router router(config);

  const bio::SequenceBank empty(bio::SequenceKind::kProtein);
  const store::ShardManifest extended =
      store::append_sharded_store(workload.prefix, empty, model);
  try {
    router.refresh_manifest(workload.name);
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kShardUnavailable);
  }
  // The refusal left the serving generation untouched -- queries keep
  // working over revision 1.
  EXPECT_EQ(router.manifest().revision, 1u);
  EXPECT_FALSE(
      router.submit_search(request_for(workload, {})).get().matches.empty());

  // A rebuilt-from-scratch store under the same prefix is NOT an
  // extension of the serving generation even at a higher revision: the
  // leading slots changed, so adopting it would remap in-flight
  // semantics silently. Typed refusal instead.
  util::Xoshiro256 rng(72);
  bio::SequenceBank other(bio::SequenceKind::kProtein);
  for (int i = 0; i < 12; ++i) {
    other.add(sim::generate_protein("o" + std::to_string(i), 80, rng));
  }
  const store::ShardManifest rebuilt =
      store::write_sharded_store(workload.prefix, other, model, 400);
  const store::ShardManifest bumped =
      store::append_sharded_store(workload.prefix, empty, model);
  ASSERT_EQ(bumped.revision, 2u);
  try {
    router.refresh_manifest(workload.name);
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kRevisionMismatch);
  }
  EXPECT_EQ(router.manifest().revision, 1u);

  const std::size_t cleanup_count =
      std::max(extended.shards.size(), bumped.shards.size());
  for (std::size_t s = workload.shard_count; s < cleanup_count; ++s) {
    const std::string pair = store::shard_prefix(workload.prefix, s);
    std::remove((pair + ".pscbank").c_str());
    std::remove((pair + ".pscidx").c_str());
  }
  (void)rebuilt;
}

}  // namespace
}  // namespace psc::cluster
