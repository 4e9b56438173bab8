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
#include <type_traits>

#include "bio/fasta.hpp"
#include "core/result_codec.hpp"
#include "net/client.hpp"
#include "util/args.hpp"

namespace {

using namespace psc;

// Prints one stats entry as key=value, in the one format its kind
// shares: counters and bools as integers, seconds with six decimals. An
// empty string prints as "unknown" (a router runs no scheduler policy).
template <typename T>
void print_entry(const char* name, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    std::printf("%s=%s", name, value.empty() ? "unknown" : value.c_str());
  } else if constexpr (std::is_same_v<T, double>) {
    std::printf("%s=%.6f", name, value);
  } else {
    std::printf("%s=%llu", name, static_cast<unsigned long long>(value));
  }
}

// One replica or tenant row on one line, fields in table order.
template <typename Row>
void print_row(const Row& row) {
  const char* separator = "";
  service::for_each_stat_field(row, [&](const char* name, const auto& value) {
    std::fputs(separator, stdout);
    print_entry(name, value);
    separator = " ";
  });
  std::putchar('\n');
}

// One key=value line per scalar, then a line per replica (a router's
// table; a plain psc_serve has none) and per tenant.
void print_stats(const service::ServiceStats& stats) {
  service::for_each_stat_field(stats, [](const char* name, const auto& value) {
    print_entry(name, value);
    std::putchar('\n');
  });
  for (const service::ReplicaStats& replica : stats.replicas) {
    print_row(replica);
  }
  for (const service::TenantStats& tenant : stats.tenants) print_row(tenant);
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
                  "tenant (empty = no handshake, billed "
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
