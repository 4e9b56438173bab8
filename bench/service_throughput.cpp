// Service-layer throughput bench: how much the persistent store and the
// resident cache buy over rebuilding the reference index per query.
//
// Three measurements on the scaled paper workload (PSC_SCALE):
//   1. index load vs rebuild -- mmap-backed load_index() against a fresh
//      IndexTable construction over the same bank (target: >=10x).
//   2. queries/sec through SearchService with the bank resident
//      (max_resident > 0) vs cold-loading it for every batch
//      (max_resident = 0).
//   3. queries/sec of the pre-store baseline: run_pipeline(), which
//      re-indexes the reference bank on every call.
//
// Writes BENCH_service.json next to the working directory for machine
// consumption, mirroring BENCH_step2_kernels.json.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "index/index_table.hpp"
#include "service/search_service.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

/// Best-of-N wall-clock of `fn` (seconds).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// Single-protein query banks drawn from a workload bank.
std::vector<bio::SequenceBank> split_queries(const bio::SequenceBank& bank) {
  std::vector<bio::SequenceBank> queries;
  queries.reserve(bank.size());
  for (const bio::SequenceView sequence : bank) {
    bio::SequenceBank one(bio::SequenceKind::kProtein);
    one.add(sequence);
    queries.push_back(std::move(one));
  }
  return queries;
}

/// Queries/sec of one full drain of `queries` through a service.
/// Pipelined mode submits everything up front (queued queries coalesce
/// into shared passes); blocking mode waits for each reply before
/// submitting the next, so every query is its own batch -- with
/// max_resident=0 that makes each query pay the store load.
double service_qps(service::SearchService& service,
                   const std::vector<bio::SequenceBank>& queries,
                   const std::string& prefix, bool pipelined) {
  util::Timer timer;
  std::size_t matches = 0;
  if (pipelined) {
    std::vector<std::future<service::QueryResult>> futures;
    futures.reserve(queries.size());
    for (const bio::SequenceBank& query : queries) {
      futures.push_back(service.submit(query, prefix));
    }
    for (auto& future : futures) matches += future.get().matches.size();
  } else {
    for (const bio::SequenceBank& query : queries) {
      matches += service.submit(query, prefix).get().matches.size();
    }
  }
  const double seconds = timer.seconds();
  std::fprintf(stderr, "#   %zu queries, %zu matches, %.3fs\n", queries.size(),
               matches, seconds);
  return static_cast<double>(queries.size()) / seconds;
}

}  // namespace

int main() {
  const sim::PaperWorkload workload = bench::make_bench_workload();
  const bio::SequenceBank& genome_bank = workload.genome_bank;
  const std::vector<bio::SequenceBank> queries =
      split_queries(workload.banks.front().proteins);

  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const std::string prefix = "bench_service_store";

  // --- 1. save once, then load vs rebuild -------------------------------
  const index::IndexTable table(genome_bank, model);
  store::save_bank(prefix + ".pscbank", genome_bank);
  store::save_index(prefix + ".pscidx", table, model);

  const double rebuild_s = best_of(3, [&] {
    const index::IndexTable fresh(genome_bank, model);
    if (fresh.total_occurrences() != table.total_occurrences()) std::abort();
  });
  const double load_s = best_of(3, [&] {
    const store::LoadedIndex loaded =
        store::load_index(prefix + ".pscidx", model, &genome_bank);
    if (loaded.table.total_occurrences() != table.total_occurrences())
      std::abort();
  });
  const double load_nocheck_s = best_of(3, [&] {
    const store::LoadedIndex loaded = store::load_index(
        prefix + ".pscidx", model, nullptr, /*verify_checksum=*/false);
    if (loaded.table.total_occurrences() != table.total_occurrences())
      std::abort();
  });
  const double load_speedup = rebuild_s / load_s;

  // --- 2/3. queries/sec: resident vs cold-load vs rebuild-per-query -----
  service::ServiceConfig resident_config;
  double resident_qps = 0.0;
  double resident_blocking_qps = 0.0;
  {
    service::SearchService service(resident_config);
    service.submit(queries.front(), prefix).get();  // warm the cache
    std::fprintf(stderr, "# resident service, pipelined submits:\n");
    resident_qps = service_qps(service, queries, prefix, /*pipelined=*/true);
    std::fprintf(stderr, "# resident service, blocking submits:\n");
    resident_blocking_qps =
        service_qps(service, queries, prefix, /*pipelined=*/false);
  }

  service::ServiceConfig cold_config;
  cold_config.max_resident = 0;
  double cold_qps = 0.0;
  std::size_t cold_batches = 0;
  {
    // Blocking submits: every query is its own batch and reloads the
    // bank from the store -- what residency saves per query.
    service::SearchService service(cold_config);
    std::fprintf(stderr, "# cold-load service (max_resident=0, blocking):\n");
    cold_qps = service_qps(service, queries, prefix, /*pipelined=*/false);
    cold_batches = service.snapshot().batches;
  }

  double rebuild_qps = 0.0;
  {
    std::fprintf(stderr, "# rebuild-per-query baseline (run_pipeline):\n");
    const bio::SubstitutionMatrix matrix = bio::SubstitutionMatrix::blosum62();
    util::Timer timer;
    std::size_t matches = 0;
    for (const bio::SequenceBank& query : queries) {
      matches +=
          core::run_pipeline(query, genome_bank, options, matrix).matches.size();
    }
    const double seconds = timer.seconds();
    std::fprintf(stderr, "#   %zu queries, %zu matches, %.3fs\n",
                 queries.size(), matches, seconds);
    rebuild_qps = static_cast<double>(queries.size()) / seconds;
  }

  std::printf("\n=== service throughput ===\n");
  std::printf("index rebuild            %10.3f ms\n", rebuild_s * 1e3);
  std::printf("index load (checksum)    %10.3f ms   (%.1fx faster)\n",
              load_s * 1e3, load_speedup);
  std::printf("index load (no checksum) %10.3f ms   (%.1fx faster)\n",
              load_nocheck_s * 1e3, rebuild_s / load_nocheck_s);
  std::printf("resident, pipelined      %10.1f queries/sec\n", resident_qps);
  std::printf("resident, blocking       %10.1f queries/sec\n",
              resident_blocking_qps);
  std::printf("cold-load, blocking      %10.1f queries/sec  (%zu loads)\n",
              cold_qps, cold_batches);
  std::printf("rebuild per query        %10.1f queries/sec\n", rebuild_qps);

  std::ofstream json("BENCH_service.json");
  json << "{\n"
       << "  \"index_rebuild_seconds\": " << rebuild_s << ",\n"
       << "  \"index_load_seconds\": " << load_s << ",\n"
       << "  \"index_load_nochecksum_seconds\": " << load_nocheck_s << ",\n"
       << "  \"load_speedup_vs_rebuild\": " << load_speedup << ",\n"
       << "  \"queries\": " << queries.size() << ",\n"
       << "  \"resident_pipelined_queries_per_sec\": " << resident_qps << ",\n"
       << "  \"resident_blocking_queries_per_sec\": " << resident_blocking_qps
       << ",\n"
       << "  \"cold_load_blocking_queries_per_sec\": " << cold_qps << ",\n"
       << "  \"rebuild_per_query_queries_per_sec\": " << rebuild_qps << "\n"
       << "}\n";
  std::fprintf(stderr, "wrote BENCH_service.json\n");

  std::remove((prefix + ".pscbank").c_str());
  std::remove((prefix + ".pscidx").c_str());
  return load_speedup >= 10.0 ? 0 : 1;
}
