// Shard fan-out bench: what splitting a bank into shards costs (and
// buys) at the library level, on the scaled paper workload (PSC_SCALE).
//
// For each shard count the bank is written as a sharded store, loaded
// back as a LoadedBankSet, and every query is run through
// run_query_over_set. Three things are measured per shard count:
//   1. write time (index construction is per shard, so it shrinks);
//   2. load time for the whole set;
//   3. queries/sec through the fan-out/merge path.
// The fan-out's merged matches are also checked byte-for-byte against
// the unsharded pass (encode_matches), so the bench doubles as a
// large-workload bit-identity check on top of the small inline one in
// scripts/shard_check.sh.
//
// Writes BENCH_shard_fanout.json, mirroring BENCH_service.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/result_codec.hpp"
#include "service/search_service.hpp"
#include "service/shard_query.hpp"
#include "store/shard_store.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

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

/// A cap that makes plan_shards cut the bank into ~`target` pieces.
std::uint64_t cap_for_shards(const bio::SequenceBank& bank,
                             std::size_t target) {
  std::uint64_t total = 0;
  for (const bio::SequenceView sequence : bank) {
    total += 2 * sizeof(std::uint32_t) + sequence.id().size() + sequence.size();
  }
  return std::max<std::uint64_t>(1, total / target);
}

void remove_store(const std::string& prefix, std::size_t shards) {
  std::remove(store::manifest_path(prefix).c_str());
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string shard = store::shard_prefix(prefix, i);
    std::remove((shard + ".pscbank").c_str());
    std::remove((shard + ".pscidx").c_str());
  }
}

struct Measurement {
  std::size_t shards = 0;
  double write_seconds = 0.0;
  double load_seconds = 0.0;
  double queries_per_sec = 0.0;
  bool bit_identical = false;
};

}  // namespace

int main() {
  const sim::PaperWorkload workload = bench::make_bench_workload();
  const bio::SequenceBank& genome_bank = workload.genome_bank;
  const std::vector<bio::SequenceBank> queries =
      split_queries(workload.banks.front().proteins);

  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const bio::SubstitutionMatrix matrix = bio::SubstitutionMatrix::blosum62();
  const std::string prefix = "bench_shard_store";

  // --- unsharded reference: store, set, and per-query match bytes ------
  store::write_sharded_store(prefix, genome_bank, model,
                             /*shard_max_bytes=*/0);
  const service::LoadedBankSet reference_set =
      service::load_bank_set(prefix, model, /*verify_checksums=*/true);
  std::vector<std::vector<std::uint8_t>> reference_bytes;
  reference_bytes.reserve(queries.size());
  util::Timer reference_timer;
  for (const bio::SequenceBank& query : queries) {
    const core::PipelineResult result =
        service::run_query_over_set(query, reference_set, options, matrix);
    reference_bytes.push_back(core::encode_matches(result.matches));
  }
  const double reference_seconds = reference_timer.seconds();
  const double reference_qps =
      static_cast<double>(queries.size()) / reference_seconds;
  std::fprintf(stderr, "# unsharded: %zu queries, %.3fs\n", queries.size(),
               reference_seconds);
  remove_store(prefix, 1);

  // --- sharded passes ---------------------------------------------------
  const std::size_t targets[] = {2, 4, 8, 16};
  std::vector<Measurement> rows;
  bool all_identical = true;
  for (const std::size_t target : targets) {
    const std::uint64_t cap = cap_for_shards(genome_bank, target);
    Measurement row;

    util::Timer write_timer;
    const store::ShardManifest manifest =
        store::write_sharded_store(prefix, genome_bank, model, cap);
    row.write_seconds = write_timer.seconds();
    row.shards = manifest.shards.size();

    util::Timer load_timer;
    const service::LoadedBankSet set =
        service::load_bank_set(prefix, model, /*verify_checksums=*/true);
    row.load_seconds = load_timer.seconds();

    row.bit_identical = true;
    util::Timer query_timer;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const core::PipelineResult result =
          service::run_query_over_set(queries[q], set, options, matrix);
      if (core::encode_matches(result.matches) != reference_bytes[q]) {
        row.bit_identical = false;
      }
    }
    row.queries_per_sec =
        static_cast<double>(queries.size()) / query_timer.seconds();
    all_identical = all_identical && row.bit_identical;

    std::fprintf(stderr, "# cap %llu -> %zu shard(s): %s\n",
                 static_cast<unsigned long long>(cap), row.shards,
                 row.bit_identical ? "bit-identical" : "MISMATCH");
    remove_store(prefix, row.shards);
    rows.push_back(row);
  }

  std::printf("\n=== shard fan-out ===\n");
  std::printf("%8s %12s %12s %14s %10s\n", "shards", "write (ms)", "load (ms)",
              "queries/sec", "identical");
  std::printf("%8d %12s %12s %14.1f %10s\n", 1, "-", "-", reference_qps, "ref");
  for (const Measurement& row : rows) {
    std::printf("%8zu %12.2f %12.2f %14.1f %10s\n", row.shards,
                row.write_seconds * 1e3, row.load_seconds * 1e3,
                row.queries_per_sec, row.bit_identical ? "yes" : "NO");
  }

  std::ofstream json("BENCH_shard_fanout.json");
  json << "{\n"
       << "  \"queries\": " << queries.size() << ",\n"
       << "  \"unsharded_queries_per_sec\": " << reference_qps << ",\n"
       << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << ",\n"
       << "  \"sharded\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& row = rows[i];
    json << "    {\"shards\": " << row.shards
         << ", \"write_seconds\": " << row.write_seconds
         << ", \"load_seconds\": " << row.load_seconds
         << ", \"queries_per_sec\": " << row.queries_per_sec
         << ", \"bit_identical\": " << (row.bit_identical ? "true" : "false")
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote BENCH_shard_fanout.json\n");

  return all_identical ? 0 : 1;
}
