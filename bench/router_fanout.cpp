// Router fan-out bench: what the cluster coordinator costs over a
// single psc_serve node, measured through the real wire stack on
// loopback. The scaled paper workload (PSC_SCALE) is stored twice --
// unsharded behind one server, and sharded across three replica servers
// with a redundant shard map behind a Router -- and every query runs
// through a net::Client against both. Reports queries/sec and mean
// latency for each path, checks the routed replies byte-for-byte
// against the single node's, and surfaces the router's retry/hedge
// counters.
//
// Writes BENCH_router_fanout.json, mirroring BENCH_shard_fanout.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "common.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/search_service.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

/// Per-query FASTA strings drawn from a workload bank.
std::vector<std::string> split_query_fastas(const bio::SequenceBank& bank) {
  std::vector<std::string> fastas;
  fastas.reserve(bank.size());
  for (const bio::SequenceView sequence : bank) {
    std::ostringstream out;
    out << ">" << sequence.id() << "\n" << sequence.to_letters() << "\n";
    fastas.push_back(out.str());
  }
  return fastas;
}

/// A cap that makes plan_shards cut the bank into ~`target` pieces.
std::uint64_t cap_for_shards(const bio::SequenceBank& bank,
                             std::size_t target) {
  std::uint64_t total = 0;
  for (const bio::SequenceView sequence : bank) {
    total += 2 * sizeof(std::uint32_t) + sequence.id().size() + sequence.size();
  }
  return std::max<std::uint64_t>(1, total / target);
}

/// One in-process replica server scoped to a shard subset of the store.
struct Replica {
  std::unique_ptr<service::SearchService> service;
  std::unique_ptr<net::Server> server;

  Replica(const std::string& bank_name,
          const std::vector<std::size_t>& shards) {
    net::ServerConfig config;
    config.bank_root = ".";
    for (const std::size_t shard : shards) {
      config.allowed_prefixes.push_back(store::shard_prefix(bank_name, shard));
    }
    service = std::make_unique<service::SearchService>();
    server = std::make_unique<net::Server>(*service, config);
    server->start();
  }

  std::uint16_t port() const { return server->port(); }
};

struct DrainResult {
  double queries_per_sec = 0.0;
  double mean_latency_seconds = 0.0;
  std::vector<std::vector<std::uint8_t>> match_bytes;
};

/// Blocking drain of every query through one client connection.
DrainResult drain(std::uint16_t port, const std::string& bank,
                  const std::vector<std::string>& fastas) {
  net::ClientConfig config;
  config.port = port;
  config.timeout_seconds = 120.0;
  net::Client client(config);
  DrainResult result;
  result.match_bytes.reserve(fastas.size());
  util::Timer total;
  for (const std::string& fasta : fastas) {
    util::Timer per_query;
    const service::QueryResult reply = client.search(bank, fasta);
    result.mean_latency_seconds += per_query.seconds();
    result.match_bytes.push_back(core::encode_matches(reply.matches));
  }
  const double seconds = total.seconds();
  result.queries_per_sec = static_cast<double>(fastas.size()) / seconds;
  result.mean_latency_seconds /= static_cast<double>(fastas.size());
  return result;
}

}  // namespace

int main() {
  const sim::PaperWorkload workload = bench::make_bench_workload();
  const bio::SequenceBank& genome_bank = workload.genome_bank;
  const std::vector<std::string> fastas =
      split_query_fastas(workload.banks.front().proteins);

  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const std::string plain = "bench_router_plain";
  const std::string sharded = "bench_router_store";

  // --- the two stores ---------------------------------------------------
  const index::IndexTable table(genome_bank, model);
  const std::uint64_t checksum = store::save_bank(plain + ".pscbank",
                                                  genome_bank);
  store::save_index(plain + ".pscidx", table, model, checksum);
  const store::ShardManifest manifest = store::write_sharded_store(
      sharded, genome_bank, model, cap_for_shards(genome_bank, 6));
  const std::size_t shard_count = manifest.shards.size();
  std::fprintf(stderr, "# %zu queries, %zu shard(s)\n", fastas.size(),
               shard_count);

  // --- single node ------------------------------------------------------
  double single_qps = 0.0;
  double single_latency = 0.0;
  std::vector<std::vector<std::uint8_t>> reference;
  {
    service::SearchService service;
    net::ServerConfig config;
    config.bank_root = ".";
    net::Server server(service, config);
    server.start();
    std::fprintf(stderr, "# single node draining...\n");
    DrainResult result = drain(server.port(), plain, fastas);
    single_qps = result.queries_per_sec;
    single_latency = result.mean_latency_seconds;
    reference = std::move(result.match_bytes);
    server.stop();
  }

  // --- three replicas behind the router, every shard held twice ---------
  std::vector<std::vector<std::size_t>> shard_map(3);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    shard_map[shard % 3].push_back(shard);
    shard_map[(shard + 1) % 3].push_back(shard);
  }
  std::vector<std::unique_ptr<Replica>> replicas;
  cluster::RouterConfig router_config;
  router_config.manifest_prefix = sharded;
  router_config.bank_prefix = sharded;
  router_config.health.interval_seconds = 60.0;
  for (const std::vector<std::size_t>& shards : shard_map) {
    replicas.push_back(std::make_unique<Replica>(sharded, shards));
    cluster::ReplicaEndpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = replicas.back()->port();
    endpoint.shards = shards;
    router_config.replicas.push_back(std::move(endpoint));
  }

  double router_qps = 0.0;
  double router_latency = 0.0;
  bool bit_identical = true;
  std::uint64_t hedges = 0, retries = 0, failures = 0;
  {
    cluster::Router router(router_config);
    net::ServerConfig front_config;
    front_config.bank_root = ".";
    front_config.allowed_prefixes = {sharded};
    net::Server front(router, front_config);
    front.start();
    std::fprintf(stderr, "# router draining...\n");
    const DrainResult result = drain(front.port(), sharded, fastas);
    router_qps = result.queries_per_sec;
    router_latency = result.mean_latency_seconds;
    for (std::size_t q = 0; q < fastas.size(); ++q) {
      if (result.match_bytes[q] != reference[q]) bit_identical = false;
    }
    const service::ServiceStats stats = router.stats_snapshot();
    for (const service::ReplicaStats& row : stats.replicas) {
      hedges += row.hedges;
      retries += row.retries;
      failures += row.failures;
    }
    front.stop();
  }
  std::fprintf(stderr, "# routed replies %s\n",
               bit_identical ? "bit-identical" : "MISMATCH");

  std::printf("\n=== router fan-out ===\n");
  std::printf("%16s %14s %16s\n", "path", "queries/sec", "mean latency (ms)");
  std::printf("%16s %14.1f %16.2f\n", "single node", single_qps,
              single_latency * 1e3);
  std::printf("%16s %14.1f %16.2f\n", "router x3", router_qps,
              router_latency * 1e3);
  std::printf("router counters: %llu hedge(s), %llu retrie(s), "
              "%llu failure(s)\n",
              static_cast<unsigned long long>(hedges),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(failures));

  std::ofstream json("BENCH_router_fanout.json");
  json << "{\n"
       << "  \"queries\": " << fastas.size() << ",\n"
       << "  \"shards\": " << shard_count << ",\n"
       << "  \"replicas\": 3,\n"
       << "  \"single_node_queries_per_sec\": " << single_qps << ",\n"
       << "  \"single_node_mean_latency_seconds\": " << single_latency << ",\n"
       << "  \"router_queries_per_sec\": " << router_qps << ",\n"
       << "  \"router_mean_latency_seconds\": " << router_latency << ",\n"
       << "  \"router_hedges\": " << hedges << ",\n"
       << "  \"router_retries\": " << retries << ",\n"
       << "  \"router_failures\": " << failures << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << "\n"
       << "}\n";
  std::fprintf(stderr, "wrote BENCH_router_fanout.json\n");

  std::remove((plain + ".pscbank").c_str());
  std::remove((plain + ".pscidx").c_str());
  std::remove(store::manifest_path(sharded).c_str());
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::string pair = store::shard_prefix(sharded, s);
    std::remove((pair + ".pscbank").c_str());
    std::remove((pair + ".pscidx").c_str());
  }
  return bit_identical ? 0 : 1;
}
