// Live-ingest bench: what append + refresh buys over a full reindex on
// the scaled paper workload (PSC_SCALE).
//
// The bank is split into a base store plus a tail delta. Two ways to
// serve the combined set are timed:
//   1. live ingest -- append_sharded_store writes one tail shard and a
//      bumped-revision manifest; the new generation loads with the old
//      one as a reuse donor (load_bank_set's `previous`), so only the
//      tail is read from disk;
//   2. full reindex -- write_sharded_store over the combined bank and a
//      cold load of every shard.
// Both paths answer the same queries and the match bytes are compared:
// the bench doubles as a large-workload proof that live ingest is
// byte-identical to the rebuild. A third section measures the v3 LZSS
// cold-storage mode: bytes on disk and load cost, same identity check.
//
// Writes BENCH_ingest.json, mirroring BENCH_shard_fanout.json.
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

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::uint64_t store_bytes(const std::string& prefix, std::size_t shards) {
  std::uint64_t total = file_bytes(store::manifest_path(prefix));
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string shard = store::shard_prefix(prefix, i);
    total += file_bytes(shard + ".pscbank") + file_bytes(shard + ".pscidx");
  }
  return total;
}

std::vector<std::uint8_t> run_queries(const bio::SequenceBank& queries,
                                      const service::LoadedBankSet& set,
                                      const core::PipelineOptions& options,
                                      const bio::SubstitutionMatrix& matrix) {
  const core::PipelineResult result =
      service::run_query_over_set(queries, set, options, matrix);
  return core::encode_matches(result.matches);
}

}  // namespace

int main() {
  const sim::PaperWorkload workload = bench::make_bench_workload();
  const bio::SequenceBank& genome_bank = workload.genome_bank;
  const bio::SequenceBank& queries = workload.banks.front().proteins;

  const core::PipelineOptions options = service::default_service_options();
  const index::SeedModel model = core::make_seed_model(options.seed_model);
  const bio::SubstitutionMatrix matrix = bio::SubstitutionMatrix::blosum62();

  // Base = first 7/8 of the fragments, delta = the rest (one ingest tick).
  const std::size_t split = genome_bank.size() - genome_bank.size() / 8;
  bio::SequenceBank base(bio::SequenceKind::kProtein);
  bio::SequenceBank delta(bio::SequenceKind::kProtein);
  for (std::size_t i = 0; i < genome_bank.size(); ++i) {
    (i < split ? base : delta).add(genome_bank[i]);
  }
  const std::uint64_t cap = cap_for_shards(base, 8);
  std::fprintf(stderr, "# base %zu fragment(s), delta %zu fragment(s)\n",
               base.size(), delta.size());

  const std::string live = "bench_ingest_live";
  const std::string rebuilt = "bench_ingest_rebuilt";
  const std::string packed = "bench_ingest_packed";

  // --- live ingest: base store, append, refresh-style reuse load -------
  const store::ShardManifest base_manifest =
      store::write_sharded_store(live, base, model, cap);
  const service::LoadedBankSet previous =
      service::load_bank_set(live, model, /*verify_checksums=*/true);

  util::Timer append_timer;
  const store::ShardManifest extended =
      store::append_sharded_store(live, delta, model);
  const double append_seconds = append_timer.seconds();

  util::Timer refresh_timer;
  const service::LoadedBankSet refreshed = service::load_bank_set(
      live, model, /*verify_checksums=*/true, &previous);
  const double refresh_seconds = refresh_timer.seconds();
  const std::size_t reloaded = refreshed.shard_count() - refreshed.reused_shards;
  const std::vector<std::uint8_t> live_bytes =
      run_queries(queries, refreshed, options, matrix);

  // --- full reindex of the combined bank -------------------------------
  util::Timer rebuild_timer;
  const store::ShardManifest rebuilt_manifest =
      store::write_sharded_store(rebuilt, genome_bank, model, cap);
  const double rebuild_seconds = rebuild_timer.seconds();

  util::Timer cold_timer;
  const service::LoadedBankSet cold =
      service::load_bank_set(rebuilt, model, /*verify_checksums=*/true);
  const double cold_seconds = cold_timer.seconds();
  const std::vector<std::uint8_t> rebuilt_bytes =
      run_queries(queries, cold, options, matrix);

  const bool identical = live_bytes == rebuilt_bytes;
  const std::uint64_t plain_bytes =
      store_bytes(rebuilt, rebuilt_manifest.shards.size());

  // --- v3 LZSS cold-storage mode ---------------------------------------
  const store::ShardManifest packed_manifest = store::write_sharded_store(
      packed, genome_bank, model, cap, /*threads=*/0, /*serial_index=*/false,
      /*compress=*/true);
  const std::uint64_t packed_bytes =
      store_bytes(packed, packed_manifest.shards.size());
  util::Timer packed_timer;
  const service::LoadedBankSet packed_set =
      service::load_bank_set(packed, model, /*verify_checksums=*/true);
  const double packed_seconds = packed_timer.seconds();
  const bool packed_identical =
      run_queries(queries, packed_set, options, matrix) == rebuilt_bytes;

  std::printf("\n=== live ingest vs full reindex ===\n");
  std::printf("%-28s %12s %12s %14s\n", "path", "write (ms)", "load (ms)",
              "shards read");
  std::printf("%-28s %12.2f %12.2f %14zu\n", "append + refresh",
              append_seconds * 1e3, refresh_seconds * 1e3, reloaded);
  std::printf("%-28s %12.2f %12.2f %14zu\n", "full reindex",
              rebuild_seconds * 1e3, cold_seconds * 1e3,
              rebuilt_manifest.shards.size());
  std::printf("identical: %s; revision %llu; reused %zu/%zu shard(s)\n",
              identical ? "yes" : "NO",
              static_cast<unsigned long long>(extended.revision),
              refreshed.reused_shards, refreshed.shard_count());
  std::printf("compressed store: %.1f%% of plain (%llu vs %llu bytes), "
              "load %.2f ms, identical: %s\n",
              100.0 * static_cast<double>(packed_bytes) /
                  static_cast<double>(plain_bytes),
              static_cast<unsigned long long>(packed_bytes),
              static_cast<unsigned long long>(plain_bytes),
              packed_seconds * 1e3, packed_identical ? "yes" : "NO");

  std::ofstream json("BENCH_ingest.json");
  json << "{\n"
       << "  \"base_fragments\": " << base.size() << ",\n"
       << "  \"delta_fragments\": " << delta.size() << ",\n"
       << "  \"append_seconds\": " << append_seconds << ",\n"
       << "  \"refresh_load_seconds\": " << refresh_seconds << ",\n"
       << "  \"refresh_shards_reloaded\": " << reloaded << ",\n"
       << "  \"refresh_shards_reused\": " << refreshed.reused_shards << ",\n"
       << "  \"rebuild_seconds\": " << rebuild_seconds << ",\n"
       << "  \"cold_load_seconds\": " << cold_seconds << ",\n"
       << "  \"cold_shards_read\": " << rebuilt_manifest.shards.size() << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"plain_store_bytes\": " << plain_bytes << ",\n"
       << "  \"compressed_store_bytes\": " << packed_bytes << ",\n"
       << "  \"compressed_load_seconds\": " << packed_seconds << ",\n"
       << "  \"compressed_bit_identical\": "
       << (packed_identical ? "true" : "false") << "\n"
       << "}\n";
  std::fprintf(stderr, "wrote BENCH_ingest.json\n");

  remove_store(live, extended.shards.size());
  remove_store(rebuilt, rebuilt_manifest.shards.size());
  remove_store(packed, packed_manifest.shards.size());
  (void)base_manifest;
  return identical && packed_identical ? 0 : 1;
}
