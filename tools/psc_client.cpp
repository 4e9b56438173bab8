// psc_client: command-line client for psc_serve.
//
//   $ ./psc_client --port=7878 --ping
//   $ ./psc_client --port=7878 --stats
//   $ ./psc_client --port=7878 --bank=bank --query=queries.fa
//   $ ./psc_client --port=7878 --bank=bank --query=queries.fa
//         --output-binary > matches.bin      (one line)
//
// --output-binary writes the versioned match encoding
// (core/result_codec.hpp) to stdout -- the same bytes psc_search
// --output-binary emits for the identical search, so the two can be
// diffed bit-for-bit.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bio/fasta.hpp"
#include "core/result_codec.hpp"
#include "net/client.hpp"
#include "util/args.hpp"

namespace {

using namespace psc;

void print_stats(const service::ServiceStats& stats) {
  std::printf("queries_submitted=%llu\n",
              static_cast<unsigned long long>(stats.queries_submitted));
  std::printf("queries_completed=%llu\n",
              static_cast<unsigned long long>(stats.queries_completed));
  std::printf("queries_failed=%llu\n",
              static_cast<unsigned long long>(stats.queries_failed));
  std::printf("batches=%llu\n", static_cast<unsigned long long>(stats.batches));
  std::printf("cache_hits=%llu\n",
              static_cast<unsigned long long>(stats.cache_hits));
  std::printf("cache_misses=%llu\n",
              static_cast<unsigned long long>(stats.cache_misses));
  std::printf("evictions=%llu\n",
              static_cast<unsigned long long>(stats.evictions));
  std::printf("max_batch=%zu\n", stats.max_batch);
  std::printf("total_latency_seconds=%.6f\n", stats.total_latency_seconds);
  std::printf("total_batch_latency_seconds=%.6f\n",
              stats.total_batch_latency_seconds);
  std::printf("max_batch_latency_seconds=%.6f\n",
              stats.max_batch_latency_seconds);
  std::printf("mean_batch_latency_seconds=%.6f\n",
              stats.mean_batch_latency_seconds);
  std::printf("queue_depth=%zu\n", stats.queue_depth);
  std::printf("resident_banks=%zu\n", stats.resident_banks);
  std::printf("resident_shards=%zu\n", stats.resident_shards);
  // Board-residency and scheduler rows (codec v4). A v3-or-older server
  // never sends them; the decoder leaves the defaults, and printing the
  // zero rows keeps the output schema stable for scripts.
  std::printf("board_bitstream_loads=%llu\n",
              static_cast<unsigned long long>(stats.board_bitstream_loads));
  std::printf("board_bank_uploads=%llu\n",
              static_cast<unsigned long long>(stats.board_bank_uploads));
  std::printf("board_swaps=%llu\n",
              static_cast<unsigned long long>(stats.board_swaps));
  std::printf("bank_uploads_skipped=%llu\n",
              static_cast<unsigned long long>(stats.bank_uploads_skipped));
  std::printf("board_upload_seconds=%.6f\n", stats.board_upload_seconds);
  std::printf("board_upload_seconds_saved=%.6f\n",
              stats.board_upload_seconds_saved);
  std::printf("accel_modeled_seconds=%.6f\n", stats.accel_modeled_seconds);
  std::printf("scheduler_rounds=%llu\n",
              static_cast<unsigned long long>(stats.scheduler_rounds));
  std::printf("scheduler_reorders=%llu\n",
              static_cast<unsigned long long>(stats.scheduler_reorders));
  std::printf("starvation_promotions=%llu\n",
              static_cast<unsigned long long>(stats.starvation_promotions));
  std::printf("bank_switches=%llu\n",
              static_cast<unsigned long long>(stats.bank_switches));
  std::printf("scheduler_policy=%s\n", stats.scheduler_policy.empty()
                                           ? "unknown"
                                           : stats.scheduler_policy.c_str());
  // A router backend (codec v3) reports its replica table; a plain
  // psc_serve has no rows and prints nothing extra. The benched/revived
  // columns ride codec v5; older servers leave them zero.
  for (const service::ReplicaStats& replica : stats.replicas) {
    std::printf(
        "replica=%s up=%d inflight=%llu requests=%llu retries=%llu "
        "hedges=%llu failures=%llu benched=%llu revived=%llu "
        "p50_latency_seconds=%.6f max_latency_seconds=%.6f\n",
        replica.endpoint.c_str(), replica.up ? 1 : 0,
        static_cast<unsigned long long>(replica.inflight),
        static_cast<unsigned long long>(replica.requests),
        static_cast<unsigned long long>(replica.retries),
        static_cast<unsigned long long>(replica.hedges),
        static_cast<unsigned long long>(replica.failures),
        static_cast<unsigned long long>(replica.benched),
        static_cast<unsigned long long>(replica.revived),
        replica.p50_latency_seconds, replica.max_latency_seconds);
  }
  // Live-ingest rows (codec v6); older servers leave the defaults.
  std::printf("manifest_refreshes=%llu\n",
              static_cast<unsigned long long>(stats.manifest_refreshes));
  std::printf("refresh_shards_reused=%llu\n",
              static_cast<unsigned long long>(stats.refresh_shards_reused));
  std::printf("resident_compressed_shards=%zu\n",
              stats.resident_compressed_shards);
  std::printf("store_revision=%llu\n",
              static_cast<unsigned long long>(stats.store_revision));
  // Multi-tenant rows (codec v5); a pre-tenancy server sends none.
  std::printf("fair_scheduler=%d\n", stats.fair_scheduler ? 1 : 0);
  for (const service::TenantStats& tenant : stats.tenants) {
    std::printf(
        "tenant=%s weight=%.3f admitted=%llu rejected=%llu completed=%llu "
        "failed=%llu queued=%llu total_latency_seconds=%.6f "
        "max_latency_seconds=%.6f query_residues=%llu resident_bytes=%llu "
        "hedges=%llu hedges_denied=%llu\n",
        tenant.name.c_str(), tenant.weight,
        static_cast<unsigned long long>(tenant.admitted),
        static_cast<unsigned long long>(tenant.rejected),
        static_cast<unsigned long long>(tenant.completed),
        static_cast<unsigned long long>(tenant.failed),
        static_cast<unsigned long long>(tenant.queued),
        tenant.total_latency_seconds, tenant.max_latency_seconds,
        static_cast<unsigned long long>(tenant.query_residues),
        static_cast<unsigned long long>(tenant.resident_bytes),
        static_cast<unsigned long long>(tenant.hedges),
        static_cast<unsigned long long>(tenant.hedges_denied));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("psc_client",
                       "query a psc_serve instance over the wire protocol");
  args.add_option("host", "127.0.0.1", "server address");
  args.add_option("port", "0", "server port (required)");
  args.add_option("timeout", "30", "socket timeout in seconds (0 = none)");
  args.add_option("tenant", "",
                  "tenant identity: sends a kHello handshake so every "
                  "request on this connection is billed to the named "
                  "tenant (empty = legacy hello-less connection, billed "
                  "to 'default')");
  args.add_option("repeat", "1",
                  "submit the search this many times on one connection; "
                  "over-quota rejections are counted, not fatal, and a "
                  "final ping proves the connection survived them");
  args.add_flag("ping", "round-trip a Ping frame and exit");
  args.add_flag("stats", "print the service stats snapshot and exit");
  args.add_option("refresh", "",
                  "live ingest: ask the server to adopt the named bank "
                  "prefix's current manifest revision (run after psc_index "
                  "--append) and exit; prints the revision now served");
  args.add_option("bank", "",
                  "bank prefix, relative to the server's --bank-root");
  args.add_option("query", "", "query FASTA file (protein)");
  args.add_option("evalue", "1e-3", "per-query E-value cutoff");
  args.add_flag("composition", "composition-based E-value statistics");
  args.add_flag("no-traceback",
                "skip alignment traceback (scores and coordinates only)");
  args.add_flag("output-binary",
                "write the versioned match encoding to stdout instead of "
                "text (diffable against psc_search --output-binary)");
  if (!args.parse(argc, argv)) return 1;

  const std::int64_t port = args.get_int("port");
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "psc_client: --port is required (1..65535)\n");
    return 1;
  }

  net::ClientConfig config;
  config.host = args.get("host");
  config.port = static_cast<std::uint16_t>(port);
  config.timeout_seconds = args.get_double("timeout");
  config.tenant = args.get("tenant");
  const std::int64_t repeat = args.get_int("repeat");
  if (repeat < 1) {
    std::fprintf(stderr, "psc_client: --repeat must be >= 1\n");
    return 1;
  }

  try {
    net::Client client(config);

    if (args.get_flag("ping")) {
      client.ping();
      std::printf("pong\n");
      return 0;
    }
    if (args.get_flag("stats")) {
      print_stats(client.stats());
      return 0;
    }
    if (!args.get("refresh").empty()) {
      const std::uint64_t revision = client.refresh(args.get("refresh"));
      std::printf("refreshed %s: revision %llu\n",
                  args.get("refresh").c_str(),
                  static_cast<unsigned long long>(revision));
      return 0;
    }

    const std::string bank = args.get("bank");
    const std::string query_path = args.get("query");
    if (bank.empty() || query_path.empty()) {
      std::fprintf(stderr, "psc_client: --bank and --query are required\n%s",
                   args.usage().c_str());
      return 1;
    }

    std::ifstream in(query_path);
    if (!in) {
      std::fprintf(stderr, "psc_client: cannot open %s\n", query_path.c_str());
      return 1;
    }
    std::ostringstream fasta;
    fasta << in.rdbuf();
    const std::string query_fasta = fasta.str();
    // Parse locally too: ids for the text output, and the client fails
    // fast on FASTA the server would reject anyway.
    std::istringstream parse_stream(query_fasta);
    const bio::SequenceBank query =
        bio::read_fasta(parse_stream, bio::SequenceKind::kProtein);
    if (query.empty()) {
      std::fprintf(stderr, "psc_client: %s holds no sequences\n",
                   query_path.c_str());
      return 1;
    }

    service::QueryOptions options;
    options.e_value_cutoff = args.get_double("evalue");
    options.with_traceback = !args.get_flag("no-traceback");
    options.composition_based_stats = args.get_flag("composition");

    // With --repeat, over-quota rejections are data, not failures: they
    // are counted, the loop continues, and a final ping proves the
    // typed error left the connection usable.
    std::optional<service::QueryResult> first_admitted;
    std::optional<net::WireError> last_rejection;
    unsigned long long admitted = 0;
    unsigned long long rejected = 0;
    for (std::int64_t attempt = 0; attempt < repeat; ++attempt) {
      try {
        service::QueryResult reply = client.search(bank, query_fasta, options);
        ++admitted;
        if (!first_admitted) first_admitted = std::move(reply);
      } catch (const net::WireError& e) {
        if (e.code() == net::WireErrorCode::kQuotaExceeded ||
            e.code() == net::WireErrorCode::kAdmissionRejected) {
          ++rejected;
          last_rejection = e;
          continue;
        }
        throw;
      }
    }
    if (repeat > 1) {
      client.ping();
      std::fprintf(stderr, "# repeat summary: admitted=%llu rejected=%llu\n",
                   admitted, rejected);
    }
    if (!first_admitted) {
      std::fprintf(stderr,
                   "psc_client: every submission was rejected [%s]: %s\n",
                   net::wire_error_code_name(last_rejection->code()).c_str(),
                   last_rejection->what());
      return 2;
    }
    const service::QueryResult& result = *first_admitted;

    if (args.get_flag("output-binary")) {
      const std::vector<std::uint8_t> bytes =
          core::encode_matches(result.matches);
      std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    } else {
      for (const core::Match& match : result.matches) {
        const std::string_view id = query.id(match.bank0_sequence);
        std::printf("%.*s\tsubject:%u\t%d\t%.1f\t%.2g\t%zu\t%zu\t%zu\t%zu\n",
                    static_cast<int>(id.size()), id.data(),
                    match.bank1_sequence, match.alignment.score,
                    match.bit_score, match.e_value, match.alignment.begin0,
                    match.alignment.end0, match.alignment.begin1,
                    match.alignment.end1);
      }
    }
    std::fprintf(stderr,
                 "# %zu match(es); batch of %zu, bank %s, latency %.3f s\n",
                 result.matches.size(), result.batch_size,
                 result.bank_was_resident ? "resident" : "loaded",
                 result.latency_seconds);
    return 0;
  } catch (const net::WireError& e) {
    std::fprintf(stderr, "psc_client: server error [%s]: %s\n",
                 net::wire_error_code_name(e.code()).c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psc_client: %s\n", e.what());
    return 1;
  }
}
