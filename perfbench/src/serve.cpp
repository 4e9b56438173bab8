// serve_single and serve_cluster: the serving path on loopback, driven
// from outside through the wire protocol.
//
// serve_single: one net::Server over a SearchService with the store warm
// and resident; 30-residue queries, a stated share of them repeats.
// serve_cluster: a net::Server over a cluster::Router over three
// in-process replicas of an LZSS-compressed sharded store, full-length
// queries each asked once, while a writer appends a small delta with
// store::append_sharded_store at a fixed cadence and asks the router to
// refresh.
//
// An untraced run measures an open loop at the workload's fixed rate
// (latency), then a closed loop of nproc blocking clients (capacity). A
// traced run spends its whole phase on the open loop, which gives the
// tail percentiles enough samples.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "cluster/router.hpp"
#include "core/pipeline.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "inputs.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/search_service.hpp"
#include "service/shard_query.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace psc::perfbench {

namespace {

namespace fs = std::filesystem;

// serve_single: subject is the translated genome of the 0.4% scale
// workload; queries are 30-residue cuts of its "30K" bank proteins.
constexpr double kSingleGenomeScale = 0.004;
constexpr double kSingleBankScale = 0.04;
constexpr std::size_t kWindow = 30;
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kSingleStream = 6000;  ///< wraps if a run asks more
/// Open-loop rate, about half the closed-loop capacity measured on 4
/// cores when the workload was defined. Never recalibrated.
constexpr double kSingleRate = 180.0;
constexpr std::size_t kSingleRound = 100;

// serve_cluster: an 8% scale "30K" bank (2400 proteins) as queries,
// the 0.4% genome split into a compressed base of >= 6 shards plus
// kDeltas held-back deltas appended every kAppendEverySeconds.
constexpr double kClusterGenomeScale = 0.004;
constexpr double kClusterBankScale = 0.08;
constexpr std::size_t kBaseShards = 6;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kDeltas = 8;
constexpr std::size_t kDeltaFragmentsDivisor = 64;  ///< each delta: 1/64 of fragments
constexpr double kAppendEverySeconds = 2.0;
/// Open-loop rate, about half the routed closed-loop capacity measured
/// on 4 cores when the workload was defined. Never recalibrated.
constexpr double kClusterRate = 60.0;
constexpr std::size_t kClusterRound = 40;

/// Open-loop share of an untraced run's phase; the closed loop gets the
/// rest.
constexpr double kOpenShare = 0.5;
/// The generator may run this late at p99 before the run is invalid.
constexpr double kMaxLateP99Ms = 25.0;
/// Distinct queries replayed in-process for the core/index figures.
constexpr std::size_t kProbeQueries = 100;

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<std::string> fastas_of(const QueryStream& stream) {
  std::vector<std::string> out;
  out.reserve(stream.pool.size());
  for (const bio::SequenceBank& query : stream.pool) out.push_back(to_fasta(query));
  return out;
}

/// What one phase measured.
struct Phase {
  std::vector<Request> open;
  std::vector<Request> closed;
  double closed_seconds = 0.0;
};

Phase run_phase(const Target& target, const std::vector<std::string>& fastas,
                const QuerySource& source, double rate, double seconds,
                bool with_closed, std::size_t clients, std::size_t& next_index,
                SteadyClock::time_point epoch) {
  Phase phase;
  const double open_seconds = with_closed ? seconds * kOpenShare : seconds;
  phase.open = run_open_loop(target, fastas, source, rate, open_seconds,
                             clients, next_index, epoch);
  next_index += phase.open.size();
  if (with_closed) {
    const double start = seconds_since(epoch);
    phase.closed = run_closed_loop(target, fastas, source,
                                   seconds - open_seconds, clients, next_index,
                                   epoch);
    phase.closed_seconds = seconds_since(epoch) - start;
    for (const Request& request : phase.closed) {
      next_index = std::max(next_index, request.index + 1);
    }
  }
  return phase;
}

std::vector<double> open_latencies_ms(const std::vector<Request>& requests) {
  std::vector<double> out;
  for (const Request& request : requests) {
    if (request.replied) out.push_back((request.decoded - request.scheduled) * 1e3);
  }
  return out;
}

/// Counts failures (errors, rejections, timeouts) into `outcome`, with
/// a per-error tally in its notes.
void count_failures(const std::vector<Request>& requests, Outcome& outcome,
                    std::uint64_t& rejected) {
  for (const Request& request : requests) {
    ++outcome.attempted;
    if (!request.replied) {
      ++outcome.failed;
      ++outcome.errors[request.error];
      if (is_rejection(request.error)) ++rejected;
    }
  }
}

/// The end-to-end metrics of an untraced phase.
void end_to_end(const Phase& phase, std::size_t round, double setup_seconds,
                double peak_rss, Outcome& outcome) {
  std::size_t completed = 0;
  for (const Request& request : phase.closed) completed += request.replied ? 1 : 0;
  const std::vector<double> latencies = open_latencies_ms(phase.open);
  outcome.end_to_end = {
      {"setup_s", setup_seconds},
      {"wall_s", median(round_walls(phase.closed, round))},
      {"throughput_qps", static_cast<double>(completed) / phase.closed_seconds},
      {"latency_p50_ms", median(latencies)},
      {"peak_rss_mb", peak_rss},
  };
  outcome.notes.set("open_loop_samples", static_cast<std::uint64_t>(latencies.size()))
      .set("latency_p99_ms", tail_percentile(latencies, 0.99))
      .set("latency_p99_supported", tail_supported(latencies.size(), 0.99))
      .set("closed_loop_completed", static_cast<std::uint64_t>(completed))
      .set("closed_loop_round", static_cast<std::uint64_t>(round));
}

/// Lateness of the open-loop generator; marks the run invalid past the
/// stated bound.
double check_lateness(const std::vector<Request>& open, Outcome& outcome) {
  std::vector<double> late;
  for (const Request& request : open) {
    late.push_back((request.sent - request.scheduled) * 1e3);
  }
  const double p99 = percentile(late, 0.99);
  if (p99 > kMaxLateP99Ms) {
    outcome.invalid.push_back("open-loop generator fell behind: late p99 " +
                              std::to_string(p99) + " ms > " +
                              std::to_string(kMaxLateP99Ms) + " ms");
  }
  return p99;
}

/// Spans of the traced open-loop requests; `backend` names the layer
/// behind the front server ("service" or "cluster.router"). The children
/// are cut from the same timestamps that bound the root, so they tile it
/// and the layer-sum check holds by construction here.
void record_request_spans(Tracer& tracer, const std::vector<Request>& open,
                          SteadyClock::time_point epoch, const std::string& backend) {
  const double shift = tracer.offset(epoch);
  for (const Request& r : open) {
    if (!r.replied) continue;
    const std::int64_t root = tracer.record("request", shift + r.scheduled,
                                            shift + r.decoded, kNoParent, r.index);
    tracer.record("loadgen.late", shift + r.scheduled, shift + r.sent, root, r.index);
    tracer.record("net.send", shift + r.sent, shift + r.written, root, r.index);
    const std::int64_t wait = tracer.record("net.wait", shift + r.written,
                                            shift + r.received, root, r.index);
    tracer.record("net.decode", shift + r.received, shift + r.decoded, root, r.index);
    tracer.record(backend, shift + r.received - r.service_latency,
                  shift + r.received, wait, r.index);
  }
}

/// Per-layer net/loadgen figures of a traced (open-loop) phase.
void net_layers(const Phase& phase, Outcome& outcome, std::uint64_t rejected) {
  std::vector<double> wait_ms, service_ms, late;
  util::RunningStats codec_s, reply_bytes;
  for (const Request& r : phase.open) {
    late.push_back((r.sent - r.scheduled) * 1e3);
    if (!r.replied) continue;
    wait_ms.push_back(std::max(0.0, (r.received - r.written) - r.service_latency) * 1e3);
    service_ms.push_back(r.service_latency * 1e3);
    reply_bytes.add(static_cast<double>(r.reply_bytes));
    codec_s.add((r.written - r.sent) + (r.decoded - r.received));
  }
  const std::vector<double> latencies = open_latencies_ms(phase.open);
  outcome.layers["net.wait_p50_ms"] = median(wait_ms);
  outcome.layers["net.wait_p99_ms"] = tail_percentile(wait_ms, 0.99);
  outcome.layers["net.reply_bytes"] = reply_bytes.mean();
  outcome.layers["net.codec_s"] = codec_s.mean();
  outcome.layers["service.latency_p50_ms"] = median(service_ms);
  outcome.layers["service.latency_p99_ms"] = tail_percentile(service_ms, 0.99);
  outcome.layers["loadgen.late_p99_ms"] = percentile(late, 0.99);
  outcome.layers["loadgen.sent"] = static_cast<double>(phase.open.size());
  outcome.layers["loadgen.rejected"] = static_cast<double>(rejected);
  outcome.layers["latency_p99_ms"] = tail_percentile(latencies, 0.99);
  outcome.notes.set("traced_open_loop_samples", static_cast<std::uint64_t>(latencies.size()))
      .set("traced_latency_p99_supported", tail_supported(latencies.size(), 0.99))
      .set("traced_net_samples", static_cast<std::uint64_t>(wait_ms.size()));
}

/// Replays up to kProbeQueries distinct queries in-process through the
/// public pipeline call the service makes, for the core and index
/// figures the service does not report per pass. `run` executes one
/// query and returns its PipelineResult.
template <typename Run>
void core_probe(const QueryStream& stream, const index::SeedModel& model,
                const Run& run, Outcome& outcome) {
  util::RunningStats build, occurrences, step1, step2, step3;
  std::vector<double> cells_per_s;
  std::uint64_t pairs = 0, hits = 0, cells = 0, extensions = 0, eager = 0,
                matches = 0;
  const std::size_t count = std::min(kProbeQueries, stream.pool.size());
  for (std::size_t q = 0; q < count; ++q) {
    const bio::SequenceBank& query = stream.pool[q];
    util::Timer timer;
    const index::IndexTable table(query, model);
    build.add(timer.seconds());
    occurrences.add(static_cast<double>(table.total_occurrences()));
    const core::PipelineResult result = run(query);
    step1.add(result.times.step1_index);
    step2.add(result.times.step2_ungapped);
    step3.add(result.times.step3_gapped);
    if (result.times.step2_ungapped > 0.0) {
      cells_per_s.push_back(static_cast<double>(result.counters.step2_cells) /
                            result.times.step2_ungapped);
    }
    pairs += result.counters.step2_pairs;
    hits += result.counters.step2_hits;
    cells += result.counters.step2_cells;
    extensions += result.counters.step3_extensions;
    eager += result.counters.step3_eager_extensions;
    matches += result.matches.size();
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, count));
  outcome.layers["core.step1_s"] = step1.mean();
  outcome.layers["core.step2_s"] = step2.mean();
  outcome.layers["core.step3_s"] = step3.mean();
  outcome.layers["core.step2_pairs"] = static_cast<double>(pairs) / n;
  outcome.layers["core.step2_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(1, pairs));
  outcome.layers["align.step2_cells"] = static_cast<double>(cells) / n;
  outcome.layers["align.step2_cells_per_s"] = median(cells_per_s);
  outcome.layers["core.step3_extensions"] = static_cast<double>(extensions) / n;
  outcome.layers["core.step3_eager_ratio"] =
      static_cast<double>(eager) /
      static_cast<double>(std::max<std::uint64_t>(1, extensions));
  outcome.layers["core.matches"] = static_cast<double>(matches) / n;
  outcome.layers["index.query_build_s"] = build.mean();
  outcome.layers["index.query_occurrences"] = occurrences.mean();
  outcome.notes.set("core_probe_queries", static_cast<std::uint64_t>(count));
}

/// Compares every replied request with `reference(query)`.
template <typename Reference>
void verify(const std::vector<Request>& requests, const Reference& reference,
            Outcome& outcome) {
  for (const Request& request : requests) {
    if (request.replied && request.matches != reference(request)) {
      ++outcome.mismatches;
      ++outcome.failed;
    }
  }
}

struct SingleNode {
  std::unique_ptr<service::SearchService> service;
  std::unique_ptr<net::Server> server;
};

}  // namespace

Outcome run_serve_single(const Context& context) {
  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const std::string dir = context.work_dir + "/serve_single";
  const std::string bank = "bank";

  Outcome outcome;
  sim::PaperWorkload inputs;
  QueryStream stream;
  std::vector<std::string> fastas;
  SingleNode node;
  std::vector<double> setups;
  NormalizedClock clock(context.threads);
  for (int r = 0; r < context.setup_repeats(); ++r) {
    node.server.reset();  // the server first: it refers to the service
    node.service.reset();
    fs::remove_all(dir);
    clock.start();
    fs::create_directories(dir);
    inputs = make_paper_inputs(context.seed, kSingleGenomeScale, kSingleBankScale);
    stream = make_window_stream(inputs.banks[3].proteins, kWindow, kSingleStream,
                                kRepeatShare, context.seed);
    fastas = fastas_of(stream);
    const std::uint64_t checksum =
        store::save_bank(dir + "/" + bank + ".pscbank", inputs.genome_bank);
    store::save_index(dir + "/" + bank + ".pscidx",
                      index::IndexTable::build_parallel(inputs.genome_bank, model,
                                                        context.threads),
                      model, checksum);
    node.service = std::make_unique<service::SearchService>();
    net::ServerConfig config;
    config.bank_root = dir;
    node.server = std::make_unique<net::Server>(*node.service, config);
    node.server->start();
    // Warm-up: the first search loads the store and makes it resident.
    net::ClientConfig client_config;
    client_config.port = node.server->port();
    net::Client(client_config).search(bank, fastas[0]);
    setups.push_back(clock.stop());
  }
  outcome.notes.set("raw_setup_s", median(clock.raw_seconds()));
  outcome.inputs.set("genome_scale", kSingleGenomeScale)
      .set("bank_scale", kSingleBankScale)
      .set("subject_fragments", static_cast<std::uint64_t>(inputs.genome_bank.size()))
      .set("subject_residues",
           static_cast<std::uint64_t>(inputs.genome_bank.total_residues()))
      .set("query_residues", static_cast<std::uint64_t>(kWindow))
      .set("distinct_queries", static_cast<std::uint64_t>(stream.pool.size()))
      .set("stream_length", static_cast<std::uint64_t>(stream.order.size()))
      .set("repeat_share", kRepeatShare)
      .set("repeats", static_cast<std::uint64_t>(stream.repeats))
      .set("open_loop_rate", kSingleRate)
      .set("connections", static_cast<std::uint64_t>(context.threads))
      .set("subject_digest", std::to_string(bank_digest(inputs.genome_bank)))
      .set("seed", context.seed);

  // References, from a serial index that is gone before the timed phase.
  std::vector<Bytes> reference;
  {
    util::Timer timer;
    const index::IndexTable serial_table(inputs.genome_bank, model);
    reference = reference_replies(stream.pool, inputs.genome_bank, serial_table,
                                  options, context.threads);
    outcome.notes.set("reference_s", timer.seconds());
  }

  const QuerySource source = [&](std::size_t i) -> std::optional<std::size_t> {
    return stream.order[i % stream.order.size()];
  };
  const Target target{node.server->port(), bank};
  const auto epoch = SteadyClock::now();
  std::size_t next_index = 0;
  std::uint64_t rejected = 0;
  const auto by_query = [&](const Request& request) -> const Bytes& {
    return reference[request.query];
  };

  const bool rss_reset = reset_peak_rss();
  const service::ServiceStats before = node.service->snapshot();
  const Phase phase = run_phase(target, fastas, source, kSingleRate, context.seconds,
                                !context.trace, context.threads, next_index, epoch);
  const service::ServiceStats after = node.service->snapshot();
  const double peak_rss = program_peak_rss_mb();
  count_failures(phase.open, outcome, rejected);
  count_failures(phase.closed, outcome, rejected);
  verify(phase.open, by_query, outcome);
  verify(phase.closed, by_query, outcome);
  const double late_p99 = check_lateness(phase.open, outcome);
  outcome.notes.set("peak_rss_reset", rss_reset);
  if (!context.trace) {
    end_to_end(phase, kSingleRound, median(setups), peak_rss, outcome);
    outcome.notes.set("loadgen_late_p99_ms", late_p99);
    node.server->stop();
    return outcome;
  }

  record_request_spans(*context.tracer, phase.open, epoch, "service");
  net_layers(phase, outcome, rejected);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  outcome.layers["service.queries_per_batch"] =
      static_cast<double>(after.queries_completed - before.queries_completed) /
      std::max(1.0, batches);
  outcome.layers["service.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  outcome.layers["service.evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  node.server->stop();

  core::PipelineOptions probe_options = options;
  probe_options.set_threads(context.threads);
  const index::IndexTable table =
      index::IndexTable::build_parallel(inputs.genome_bank, model, context.threads);
  core_probe(stream, model,
             [&](const bio::SequenceBank& query) {
               return core::run_pipeline_with_index(query, inputs.genome_bank,
                                                    table, probe_options);
             },
             outcome);
  account_layers(*context.tracer, /*independent=*/false, outcome);
  return outcome;
}

namespace {

/// The cluster of one serve_cluster set-up.
struct Cluster {
  std::vector<SingleNode> replicas;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<net::Server> front;

  ~Cluster() {
    if (front) front->stop();
    front.reset();
    router.reset();
    for (SingleNode& replica : replicas) {
      if (replica.server) replica.server->stop();
    }
  }
};

/// When each store revision was live at the router, in epoch seconds.
struct RevisionLog {
  std::mutex mutex;
  std::vector<double> live_from{-1e30};   ///< append finished
  std::vector<double> live_until{1e30};   ///< next revision's refresh ack
  std::vector<double> append_s;
  std::vector<double> visible_ms;         ///< append start to refresh ack
  std::vector<std::string> errors;
};

/// Appends the next deltas at a fixed cadence until `stop`.
void write_deltas(const std::string& prefix, const std::string& bank,
                  std::uint16_t front_port,
                  const std::vector<bio::SequenceBank>& deltas,
                  std::size_t& next_delta, const index::SeedModel& model,
                  SteadyClock::time_point epoch, std::atomic<bool>& stop,
                  RevisionLog& log) {
  std::unique_ptr<net::Client> client;
  try {
    net::ClientConfig config;
    config.port = front_port;
    config.timeout_seconds = 30.0;
    client = std::make_unique<net::Client>(config);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(log.mutex);
    log.errors.push_back(e.what());
    return;
  }
  auto due = SteadyClock::now();
  while (next_delta < deltas.size()) {
    due += std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(kAppendEverySeconds));
    while (!stop.load() && SteadyClock::now() < due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (stop.load()) return;
    try {
      const double start = seconds_since(epoch);
      store::append_sharded_store(prefix, deltas[next_delta], model,
                                  /*threads=*/1, /*serial_index=*/false,
                                  /*compress=*/true);
      const double appended = seconds_since(epoch);
      client->refresh(bank);
      const double acked = seconds_since(epoch);
      ++next_delta;
      std::lock_guard<std::mutex> lock(log.mutex);
      log.live_until.back() = acked;
      log.live_from.push_back(appended);
      log.live_until.push_back(1e30);
      log.append_s.push_back(appended - start);
      log.visible_ms.push_back((acked - start) * 1e3);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(log.mutex);
      log.errors.push_back(e.what());
      return;
    }
  }
}

}  // namespace

Outcome run_serve_cluster(const Context& context) {
  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const std::string dir = context.work_dir + "/serve_cluster";
  const std::string bank = "bank";
  const std::string prefix = dir + "/" + bank;
  // Hard links to revision 0's files: the appends replace the manifest,
  // so this is how the store's revision-0 generation is loaded after the
  // timed phase, for the refresh-style load figures.
  const std::string revision0 = dir + "/r0/" + bank;

  Outcome outcome;
  sim::PaperWorkload inputs;
  bio::SequenceBank base;
  std::vector<bio::SequenceBank> deltas;
  QueryStream stream;
  std::vector<std::string> fastas;
  std::unique_ptr<Cluster> cluster;
  store::ShardManifest manifest;
  std::vector<double> setups;
  NormalizedClock clock(context.threads);
  for (int r = 0; r < context.setup_repeats(); ++r) {
    cluster.reset();
    fs::remove_all(dir);
    clock.start();
    fs::create_directories(dir);
    inputs = make_paper_inputs(context.seed, kClusterGenomeScale, kClusterBankScale);
    const bio::SequenceBank& genome = inputs.genome_bank;
    const std::size_t delta_size =
        std::max<std::size_t>(1, genome.size() / kDeltaFragmentsDivisor);
    const std::size_t split = genome.size() - kDeltas * delta_size;
    base = slice_bank(genome, 0, split);
    deltas.clear();
    for (std::size_t d = 0; d < kDeltas; ++d) {
      deltas.push_back(slice_bank(genome, split + d * delta_size,
                                  split + (d + 1) * delta_size));
    }
    stream = make_full_length_stream(inputs.banks[3].proteins);
    fastas = fastas_of(stream);
    std::uint64_t base_bytes = 0;
    for (const bio::Sequence& sequence : base) {
      base_bytes += 2 * sizeof(std::uint32_t) + sequence.id().size() + sequence.size();
    }
    manifest = store::write_sharded_store(prefix, base, model,
                                          std::max<std::uint64_t>(1, base_bytes / kBaseShards),
                                          context.threads, false, /*compress=*/true);
    fs::create_directories(dir + "/r0");
    fs::create_hard_link(store::manifest_path(prefix), store::manifest_path(revision0));
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
      for (const char* extension : {".pscbank", ".pscidx"}) {
        fs::create_hard_link(store::shard_prefix(prefix, s) + extension,
                             store::shard_prefix(revision0, s) + extension);
      }
    }

    cluster = std::make_unique<Cluster>();
    cluster::RouterConfig router_config;
    router_config.manifest_prefix = prefix;
    router_config.bank_prefix = bank;
    router_config.health.interval_seconds = 60.0;
    for (std::size_t k = 0; k < kReplicas; ++k) {
      // Replica 0 claims "=all" (present and appended shards); 1 and 2
      // split the base shards, so each base shard has two holders.
      cluster::ReplicaEndpoint endpoint;
      endpoint.host = "127.0.0.1";
      net::ServerConfig config;
      config.bank_root = dir;
      if (k == 0) {
        endpoint.all_shards = true;
      } else {
        for (std::size_t s = k - 1; s < manifest.shards.size(); s += kReplicas - 1) {
          endpoint.shards.push_back(s);
          config.allowed_prefixes.push_back(store::shard_prefix(bank, s));
        }
      }
      service::ServiceConfig service_config;
      service_config.max_resident = 64;
      SingleNode replica;
      replica.service = std::make_unique<service::SearchService>(service_config);
      replica.server = std::make_unique<net::Server>(*replica.service, config);
      replica.server->start();
      endpoint.port = replica.server->port();
      // Warm-up: every holder loads every shard it claims.
      net::ClientConfig client_config;
      client_config.port = endpoint.port;
      net::Client client(client_config);
      for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        if (endpoint.serves(s)) client.search(store::shard_prefix(bank, s), fastas[0]);
      }
      cluster->replicas.push_back(std::move(replica));
      router_config.replicas.push_back(std::move(endpoint));
    }
    cluster->router = std::make_unique<cluster::Router>(router_config);
    net::ServerConfig front_config;
    front_config.bank_root = dir;
    front_config.allowed_prefixes = {bank};
    cluster->front = std::make_unique<net::Server>(*cluster->router, front_config);
    cluster->front->start();
    net::ClientConfig client_config;
    client_config.port = cluster->front->port();
    net::Client(client_config).search(bank, fastas[0]);
    setups.push_back(clock.stop());
  }
  outcome.notes.set("raw_setup_s", median(clock.raw_seconds()));
  outcome.inputs.set("genome_scale", kClusterGenomeScale)
      .set("bank_scale", kClusterBankScale)
      .set("base_fragments", static_cast<std::uint64_t>(base.size()))
      .set("base_shards", static_cast<std::uint64_t>(manifest.shards.size()))
      .set("delta_fragments", static_cast<std::uint64_t>(deltas.front().size()))
      .set("deltas", static_cast<std::uint64_t>(deltas.size()))
      .set("append_every_s", kAppendEverySeconds)
      .set("replicas", static_cast<std::uint64_t>(kReplicas))
      .set("queries", static_cast<std::uint64_t>(stream.pool.size()))
      .set("query_residues",
           static_cast<std::uint64_t>(inputs.banks[3].proteins.total_residues()))
      .set("open_loop_rate", kClusterRate)
      .set("connections", static_cast<std::uint64_t>(context.threads))
      .set("subject_digest", std::to_string(bank_digest(inputs.genome_bank)))
      .set("seed", context.seed);

  // Queries are asked once each; the stream ends when the pool does.
  const QuerySource source = [&](std::size_t i) -> std::optional<std::size_t> {
    if (i >= stream.order.size()) return std::nullopt;
    return stream.order[i];
  };
  const Target target{cluster->front->port(), bank};
  const auto epoch = SteadyClock::now();
  std::size_t next_index = 0;
  std::size_t next_delta = 0;
  RevisionLog log;
  std::atomic<bool> stop{false};

  const auto replica_stats = [&] {
    std::vector<service::ServiceStats> out;
    for (const SingleNode& replica : cluster->replicas) {
      out.push_back(replica.service->snapshot());
    }
    return out;
  };

  // The timed phase, with the writer appending beside it.
  const bool rss_reset = reset_peak_rss();
  const service::ServiceStats before = cluster->router->stats_snapshot();
  const std::vector<service::ServiceStats> replicas_before = replica_stats();
  std::thread writer(write_deltas, std::cref(prefix), std::cref(bank), target.port,
                     std::cref(deltas), std::ref(next_delta), std::cref(model),
                     epoch, std::ref(stop), std::ref(log));
  const Phase phase = run_phase(target, fastas, source, kClusterRate, context.seconds,
                                !context.trace, context.threads, next_index, epoch);
  stop = true;
  writer.join();
  const service::ServiceStats after = cluster->router->stats_snapshot();
  const std::vector<service::ServiceStats> replicas_after = replica_stats();
  const double peak_rss = program_peak_rss_mb();
  std::uint64_t rejected = 0;
  count_failures(phase.open, outcome, rejected);
  count_failures(phase.closed, outcome, rejected);
  for (const std::string& error : log.errors) {
    outcome.invalid.push_back("writer: " + error);
  }
  cluster.reset();

  // References per store revision, after the timed phase: a reply must
  // equal the unsharded reference of some revision live between its
  // send and its reply.
  util::Timer reference_timer;
  std::vector<const Request*> replied;
  for (const auto* part : {&phase.open, &phase.closed}) {
    for (const Request& request : *part) {
      if (request.replied) replied.push_back(&request);
    }
  }
  const std::size_t revisions = log.live_from.size();
  std::vector<std::vector<std::size_t>> candidates(replied.size());
  std::set<std::size_t> needed_revisions;
  for (std::size_t i = 0; i < replied.size(); ++i) {
    for (std::size_t r = 0; r < revisions; ++r) {
      if (log.live_from[r] <= replied[i]->decoded &&
          log.live_until[r] >= replied[i]->sent) {
        candidates[i].push_back(r);
        needed_revisions.insert(r);
      }
    }
  }
  std::map<std::size_t, bio::SequenceBank> revision_banks;
  std::map<std::size_t, index::IndexTable> revision_tables;
  for (const std::size_t r : needed_revisions) {
    bio::SequenceBank whole = base;
    for (std::size_t d = 0; d < r; ++d) {
      for (const bio::Sequence& sequence : deltas[d]) whole.add(sequence);
    }
    revision_tables.emplace(r, index::IndexTable(whole, model));
    revision_banks.emplace(r, std::move(whole));
  }
  std::map<std::pair<std::size_t, std::size_t>, Bytes> references;
  std::mutex references_mutex;
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  for (std::size_t i = 0; i < replied.size(); ++i) {
    for (const std::size_t r : candidates[i]) jobs.emplace_back(replied[i]->query, r);
  }
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < context.threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t j = next.fetch_add(1); j < jobs.size(); j = next.fetch_add(1)) {
          const auto [query, r] = jobs[j];
          std::vector<Bytes> one = reference_replies(
              {stream.pool[query]}, revision_banks.at(r), revision_tables.at(r),
              options, 1);
          std::lock_guard<std::mutex> lock(references_mutex);
          references.emplace(jobs[j], std::move(one.front()));
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }
  std::uint64_t straddling = 0;
  for (std::size_t i = 0; i < replied.size(); ++i) {
    bool matched = false;
    for (const std::size_t r : candidates[i]) {
      if (references.at({replied[i]->query, r}) == replied[i]->matches) {
        matched = true;
        break;
      }
    }
    if (candidates[i].size() > 1) ++straddling;
    if (!matched) {
      ++outcome.mismatches;
      ++outcome.failed;
    }
  }
  outcome.notes.set("reference_s", reference_timer.seconds())
      .set("revisions_served", static_cast<std::uint64_t>(revisions))
      .set("replies_straddling_a_refresh", straddling)
      .set("appends", static_cast<std::uint64_t>(log.append_s.size()));

  const double late_p99 = check_lateness(phase.open, outcome);
  outcome.notes.set("peak_rss_reset", rss_reset);
  if (phase.closed.size() + phase.open.size() >= stream.pool.size()) {
    outcome.invalid.push_back("query pool exhausted: raise the bank size");
  }
  if (!context.trace) {
    end_to_end(phase, kClusterRound, median(setups), peak_rss, outcome);
    outcome.notes.set("loadgen_late_p99_ms", late_p99)
        .set("ingest_visible_ms", median(log.visible_ms));
    return outcome;
  }

  record_request_spans(*context.tracer, phase.open, epoch, "cluster.router");
  net_layers(phase, outcome, rejected);

  // Router legs over the timed phase.
  std::uint64_t leg_requests = 0, hedges = 0, retries = 0;
  double leg_p50_weighted = 0.0, leg_max = 0.0;
  for (std::size_t k = 0; k < after.replicas.size(); ++k) {
    const service::ReplicaStats& now = after.replicas[k];
    const service::ReplicaStats& then = before.replicas[k];
    const std::uint64_t requests = now.requests - then.requests;
    leg_requests += requests;
    hedges += now.hedges - then.hedges;
    retries += now.retries - then.retries;
    leg_p50_weighted += static_cast<double>(requests) * now.p50_latency_seconds;
    leg_max = std::max(leg_max, now.max_latency_seconds);
  }
  std::uint64_t shard_legs = 0;
  std::vector<double> router_ms;
  for (const Request& request : phase.open) {
    if (!request.replied) continue;
    router_ms.push_back(request.service_latency * 1e3);
    // Shards at the revision the request could first have seen.
    std::size_t r = 0;
    while (r + 1 < log.live_from.size() && log.live_from[r + 1] <= request.sent) ++r;
    shard_legs += manifest.shards.size() + r;
  }
  const double leg_p50_ms =
      leg_requests > 0 ? 1e3 * leg_p50_weighted / static_cast<double>(leg_requests) : 0.0;
  outcome.layers["cluster.legs_per_shard"] =
      static_cast<double>(leg_requests) /
      static_cast<double>(std::max<std::uint64_t>(1, shard_legs));
  outcome.layers["cluster.leg_p50_ms"] = leg_p50_ms;
  outcome.layers["cluster.leg_max_ms"] = leg_max * 1e3;
  outcome.layers["cluster.hedges"] = static_cast<double>(hedges);
  outcome.layers["cluster.retries"] = static_cast<double>(retries);
  outcome.layers["cluster.coord_p50_ms"] = std::max(0.0, median(router_ms) - leg_p50_ms);

  // Replica services over the timed phase.
  double completed = 0.0, batches = 0.0, hits = 0.0, misses = 0.0, evictions = 0.0;
  for (std::size_t k = 0; k < replicas_after.size(); ++k) {
    const service::ServiceStats& now = replicas_after[k];
    const service::ServiceStats& then = replicas_before[k];
    completed += static_cast<double>(now.queries_completed - then.queries_completed);
    batches += static_cast<double>(now.batches - then.batches);
    hits += static_cast<double>(now.cache_hits - then.cache_hits);
    misses += static_cast<double>(now.cache_misses - then.cache_misses);
    evictions += static_cast<double>(now.evictions - then.evictions);
  }
  outcome.layers["service.queries_per_batch"] = completed / std::max(1.0, batches);
  outcome.layers["service.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  outcome.layers["service.evictions"] = evictions;

  outcome.layers["store.append_s"] = median(log.append_s);
  outcome.layers["ingest_visible_ms"] = median(log.visible_ms);
  outcome.layers["store.bytes"] = static_cast<double>(directory_bytes(dir));
  // Revision 0 loaded cold, then the final revision loaded refresh-style
  // with revision 0 resident: only the appended tail shards are read.
  util::Timer cold_timer;
  const service::LoadedBankSet generation0 = service::load_bank_set(revision0, model, true);
  outcome.notes.set("store_cold_load_s", cold_timer.seconds());
  util::Timer load_timer;
  const service::LoadedBankSet refreshed =
      service::load_bank_set(prefix, model, true, &generation0);
  outcome.layers["store.load_s"] = load_timer.seconds();
  outcome.layers["store.shards_reused"] = static_cast<double>(refreshed.reused_shards);
  outcome.notes.set("store_final_shards",
                    static_cast<std::uint64_t>(refreshed.shard_count()));

  core::PipelineOptions probe_options = options;
  probe_options.set_threads(context.threads);
  core_probe(stream, model,
             [&](const bio::SequenceBank& query) {
               return service::run_query_over_set(query, refreshed, probe_options,
                                                  bio::SubstitutionMatrix::blosum62());
             },
             outcome);
  account_layers(*context.tracer, /*independent=*/false, outcome);
  return outcome;
}

}  // namespace psc::perfbench
