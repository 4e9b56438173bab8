// Board-residency bench: what the stateful board model (rasc/board_cache)
// plus the swap-minimizing batch scheduler (service/scheduler) buy on a
// mixed-bank query stream, against the same service running the legacy
// FIFO order.
//
// Setup: three reference banks stored on disk, a request stream that
// interleaves them (A,B,C,A,B,C,...) -- the adversarial arrival order
// for board residency, since strict FIFO service re-uploads a bank image
// on every batch. The service runs the RASC step-2 backend with a
// deliberately bandwidth-constrained DMA link (same platform model for
// both schedulers, so the comparison is apples-to-apples); the measured
// quantity is *modeled accelerator seconds* (what the paper's tables
// report), taken as a snapshot delta around the stream so the one-time
// bitstream load -- paid identically by both runs during warm-up --
// stays out of the steady-state ratio.
//
// Also verifies the scheduling invariant the whole design rests on: the
// per-request match bytes (core::append_matches of each reply) are
// byte-identical between the FIFO and affinity runs.
//
// Writes BENCH_board_residency.json; exits nonzero when the affinity
// throughput advantage drops below 2x or any reply byte differs.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "service/search_service.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"

namespace {

using namespace psc;

constexpr std::size_t kBanks = 3;
constexpr std::size_t kRounds = 16;  ///< interleaved A,B,C repetitions

struct ScheduleRun {
  double accel_seconds = 0.0;    ///< modeled, steady-state window
  std::uint64_t swaps = 0;       ///< board swaps in the window
  std::uint64_t uploads = 0;     ///< bank uploads in the window
  std::uint64_t skipped = 0;     ///< uploads avoided by residency
  std::uint64_t reorders = 0;
  std::uint64_t promotions = 0;
  double queries_per_accel_second = 0.0;
  std::vector<std::vector<std::uint8_t>> reply_bytes;  ///< per request
};

service::ServiceConfig make_config(service::SchedulerPolicy policy) {
  service::ServiceConfig config;
  // RASC backend with the paper's full PE array, so the compute phase
  // stays modest against the upload cost the schedulers compete over.
  config.options = bench::rasc_options(/*pes=*/192);
  // The contended resource: a slow host link makes the bank-image DMA
  // the dominant per-batch cost, which is the regime the paper's
  // amortization argument (Tables 2/3) speaks to. Identical for both
  // schedulers.
  config.options.rasc.platform.dma_bandwidth = 2e6;
  config.options.rasc.platform.dma_latency = 1e-4;
  config.scheduler = policy;
  // Small drain cap: the worker sees the stream a few requests at a
  // time, so scheduling decisions happen at stream granularity instead
  // of one drain swallowing the whole queue.
  config.max_drain_per_round = kBanks;
  config.starvation_rounds = 8;
  config.verify_checksums = false;
  return config;
}

ScheduleRun run_schedule(service::SchedulerPolicy policy,
                         const std::vector<std::string>& prefixes,
                         const std::vector<bio::SequenceBank>& queries) {
  service::SearchService service(make_config(policy));

  // Warm-up: one query per bank pays the bitstream load and the first
  // uploads outside the measured window, and leaves the *last* bank's
  // image on the board -- the same starting state for both schedulers.
  for (const std::string& prefix : prefixes) {
    service.submit(queries.front(), prefix).get();
  }

  const service::ServiceStats before = service.snapshot();

  // The mixed stream: one submit_batch so the worker observes arrivals
  // in exactly this order under both policies.
  std::vector<service::ServiceRequest> stream;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t b = 0; b < kBanks; ++b) {
      service::ServiceRequest request;
      request.query = queries[(round * kBanks + b) % queries.size()];
      request.bank_prefix = prefixes[b];
      request.options = service.default_query_options();
      stream.push_back(std::move(request));
    }
  }
  std::vector<std::future<service::ServiceResponse>> futures =
      service.submit_batch(std::move(stream));

  ScheduleRun run;
  run.reply_bytes.reserve(futures.size());
  for (auto& future : futures) {
    const service::QueryResult reply = future.get();
    std::vector<std::uint8_t> bytes;
    core::append_matches(bytes, reply.matches);
    run.reply_bytes.push_back(std::move(bytes));
  }

  const service::ServiceStats after = service.snapshot();
  run.accel_seconds =
      after.accel_modeled_seconds - before.accel_modeled_seconds;
  run.swaps = after.board_swaps - before.board_swaps;
  run.uploads = after.board_bank_uploads - before.board_bank_uploads;
  run.skipped = after.bank_uploads_skipped - before.bank_uploads_skipped;
  run.reorders = after.scheduler_reorders - before.scheduler_reorders;
  run.promotions =
      after.starvation_promotions - before.starvation_promotions;
  run.queries_per_accel_second =
      run.accel_seconds > 0.0
          ? static_cast<double>(futures.size()) / run.accel_seconds
          : 0.0;
  std::fprintf(stderr,
               "# %-8s accel=%.4fs swaps=%llu uploads=%llu skipped=%llu "
               "reorders=%llu promotions=%llu (%.1f q/accel-s)\n",
               service::scheduler_policy_name(policy), run.accel_seconds,
               static_cast<unsigned long long>(run.swaps),
               static_cast<unsigned long long>(run.uploads),
               static_cast<unsigned long long>(run.skipped),
               static_cast<unsigned long long>(run.reorders),
               static_cast<unsigned long long>(run.promotions),
               run.queries_per_accel_second);
  return run;
}

}  // namespace

int main() {
  const sim::PaperWorkload workload = bench::make_bench_workload();

  // Three reference banks: disjoint slices of the translated genome, so
  // each has a distinct image the board must swap between.
  const bio::SequenceBank& genome = workload.genome_bank;
  const index::SeedModel model = core::make_seed_model(
      bench::rasc_options(192).seed_model);
  std::vector<std::string> prefixes;
  for (std::size_t b = 0; b < kBanks; ++b) {
    bio::SequenceBank slice(genome.kind());
    for (std::size_t i = b; i < genome.size(); i += kBanks) {
      slice.add(genome[i]);
    }
    const std::string prefix = "bench_board_bank" + std::to_string(b);
    store::save_bank(prefix + ".pscbank", slice);
    store::save_index(prefix + ".pscidx", index::IndexTable(slice, model),
                      model);
    prefixes.push_back(prefix);
  }

  // Single-protein query banks from the paper workload's smallest bank.
  std::vector<bio::SequenceBank> queries;
  for (const bio::SequenceView sequence : workload.banks.front().proteins) {
    bio::SequenceBank one(bio::SequenceKind::kProtein);
    one.add(sequence);
    queries.push_back(std::move(one));
    if (queries.size() >= 8) break;
  }

  const ScheduleRun fifo =
      run_schedule(service::SchedulerPolicy::kFifo, prefixes, queries);
  const ScheduleRun affinity =
      run_schedule(service::SchedulerPolicy::kAffinity, prefixes, queries);

  // The invariant: scheduling order must not move a single output byte.
  bool identical = fifo.reply_bytes.size() == affinity.reply_bytes.size();
  for (std::size_t i = 0; identical && i < fifo.reply_bytes.size(); ++i) {
    identical = fifo.reply_bytes[i] == affinity.reply_bytes[i];
  }

  const double ratio =
      fifo.accel_seconds > 0.0 && affinity.accel_seconds > 0.0
          ? fifo.accel_seconds / affinity.accel_seconds
          : 0.0;

  std::printf("\n=== board residency (mixed %zu-bank stream, %zu queries) "
              "===\n",
              kBanks, kBanks * kRounds);
  std::printf("fifo      %10.4f accel-s  %4llu swaps  %8.1f q/accel-s\n",
              fifo.accel_seconds,
              static_cast<unsigned long long>(fifo.swaps),
              fifo.queries_per_accel_second);
  std::printf("affinity  %10.4f accel-s  %4llu swaps  %8.1f q/accel-s\n",
              affinity.accel_seconds,
              static_cast<unsigned long long>(affinity.swaps),
              affinity.queries_per_accel_second);
  std::printf("throughput ratio (affinity/fifo)  %.2fx   replies %s\n",
              ratio, identical ? "byte-identical" : "DIFFER");

  std::ofstream json("BENCH_board_residency.json");
  json << "{\n"
       << "  \"banks\": " << kBanks << ",\n"
       << "  \"queries\": " << kBanks * kRounds << ",\n"
       << "  \"fifo_accel_seconds\": " << fifo.accel_seconds << ",\n"
       << "  \"fifo_board_swaps\": " << fifo.swaps << ",\n"
       << "  \"fifo_bank_uploads\": " << fifo.uploads << ",\n"
       << "  \"fifo_queries_per_accel_second\": "
       << fifo.queries_per_accel_second << ",\n"
       << "  \"affinity_accel_seconds\": " << affinity.accel_seconds << ",\n"
       << "  \"affinity_board_swaps\": " << affinity.swaps << ",\n"
       << "  \"affinity_bank_uploads\": " << affinity.uploads << ",\n"
       << "  \"affinity_uploads_skipped\": " << affinity.skipped << ",\n"
       << "  \"affinity_starvation_promotions\": " << affinity.promotions
       << ",\n"
       << "  \"affinity_queries_per_accel_second\": "
       << affinity.queries_per_accel_second << ",\n"
       << "  \"throughput_ratio\": " << ratio << ",\n"
       << "  \"replies_byte_identical\": " << (identical ? "true" : "false")
       << "\n"
       << "}\n";
  std::fprintf(stderr, "wrote BENCH_board_residency.json\n");

  for (const std::string& prefix : prefixes) {
    std::remove((prefix + ".pscbank").c_str());
    std::remove((prefix + ".pscidx").c_str());
  }
  return (ratio >= 2.0 && identical) ? 0 : 1;
}
