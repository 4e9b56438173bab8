// The stats codec (service/api.hpp): one self-describing keyed list.
// Every field of all three structs round-trips, entries the decoder does
// not know are skipped, and the decoder holds to its untrusted-input
// contract: any truncation or single-byte flip of a real payload either
// decodes or throws core::CodecError.
#include "service/api.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace psc::service {
namespace {

// Every field of all three structs set to a value no other field has
// (bools to their non-default where a row allows it).
ServiceStats full_sample() {
  std::uint64_t next = 1;
  const auto count = [&] { return next++; };
  const auto seconds = [&] { return 0.25 * static_cast<double>(next++); };

  ServiceStats stats;
  stats.queries_submitted = count();
  stats.queries_completed = count();
  stats.queries_failed = count();
  stats.batches = count();
  stats.cache_hits = count();
  stats.cache_misses = count();
  stats.evictions = count();
  stats.max_batch = count();
  stats.total_latency_seconds = seconds();
  stats.total_batch_latency_seconds = seconds();
  stats.max_batch_latency_seconds = seconds();
  stats.mean_batch_latency_seconds = seconds();
  stats.queue_depth = count();
  stats.resident_banks = count();
  stats.resident_shards = count();
  stats.board_bitstream_loads = count();
  stats.board_bank_uploads = count();
  stats.board_swaps = count();
  stats.bank_uploads_skipped = count();
  stats.board_upload_seconds = seconds();
  stats.board_upload_seconds_saved = seconds();
  stats.accel_modeled_seconds = seconds();
  stats.scheduler_rounds = count();
  stats.scheduler_reorders = count();
  stats.starvation_promotions = count();
  stats.bank_switches = count();
  stats.scheduler_policy = "affinity";
  stats.fair_scheduler = true;
  stats.manifest_refreshes = count();
  stats.refresh_shards_reused = count();
  stats.resident_compressed_shards = count();
  stats.store_revision = count();
  for (int i = 0; i < 2; ++i) {
    ReplicaStats replica;
    replica.endpoint = "10.0.0." + std::to_string(i + 1) + ":7001";
    replica.up = i == 0;
    replica.inflight = count();
    replica.requests = count();
    replica.retries = count();
    replica.hedges = count();
    replica.failures = count();
    replica.p50_latency_seconds = seconds();
    replica.max_latency_seconds = seconds();
    replica.benched = count();
    replica.revived = count();
    stats.replicas.push_back(replica);
  }
  for (const char* name : {"alice", "bob"}) {
    TenantStats tenant;
    tenant.name = name;
    tenant.weight = seconds();
    tenant.admitted = count();
    tenant.rejected = count();
    tenant.completed = count();
    tenant.failed = count();
    tenant.queued = count();
    tenant.total_latency_seconds = seconds();
    tenant.max_latency_seconds = seconds();
    tenant.query_residues = count();
    tenant.resident_bytes = count();
    tenant.hedges = count();
    tenant.hedges_denied = count();
    stats.tenants.push_back(tenant);
  }
  return stats;
}

// Hand-built entries in the wire layout, for payloads the encoder
// would never produce.
void put_name(std::vector<std::uint8_t>& out, std::string_view name,
              std::uint8_t kind) {
  core::codec::put_u32(out, static_cast<std::uint32_t>(name.size()));
  core::codec::put_bytes(out, name.data(), name.size());
  out.push_back(kind);
}

void put_u64_entry(std::vector<std::uint8_t>& out, std::string_view name,
                   std::uint64_t value) {
  put_name(out, name, 0);
  core::codec::put_u64(out, value);
}

void put_f64_entry(std::vector<std::uint8_t>& out, std::string_view name,
                   double value) {
  put_name(out, name, 1);
  core::codec::put_f64(out, value);
}

void put_string_entry(std::vector<std::uint8_t>& out, std::string_view name,
                      std::string_view text) {
  put_name(out, name, 2);
  core::codec::put_u32(out, static_cast<std::uint32_t>(text.size()));
  core::codec::put_bytes(out, text.data(), text.size());
}

TEST(ServiceCodec, ServiceStatsRoundTrips) {
  const ServiceStats stats = full_sample();
  EXPECT_EQ(decode_service_stats(encode_service_stats(stats)), stats);
  EXPECT_EQ(decode_service_stats(encode_service_stats(ServiceStats{})),
            ServiceStats{});
}

TEST(ServiceCodec, UnknownEntriesAreSkipped) {
  // The same stats with and without entries a later build might add:
  // one scalar, one replica column, one tenant column.
  const auto payload = [](bool extras) {
    std::vector<std::uint8_t> out;
    core::codec::put_u32(out, extras ? 4 : 2);
    put_u64_entry(out, "queries_submitted", 7);
    if (extras) put_u64_entry(out, "future_counter", 99);
    if (extras) put_string_entry(out, "future_label", "ignored");
    put_string_entry(out, "scheduler_policy", "fifo");
    core::codec::put_u32(out, 1);  // replica rows
    core::codec::put_u32(out, extras ? 3 : 2);
    put_string_entry(out, "replica", "host:7001");
    if (extras) put_f64_entry(out, "future_latency_seconds", 2.5);
    put_u64_entry(out, "up", 1);
    core::codec::put_u32(out, 1);  // tenant rows
    core::codec::put_u32(out, extras ? 3 : 2);
    if (extras) put_u64_entry(out, "future_quota", 3);
    put_string_entry(out, "tenant", "alice");
    put_f64_entry(out, "weight", 4.0);
    return out;
  };

  ServiceStats expected;
  expected.queries_submitted = 7;
  expected.scheduler_policy = "fifo";
  expected.replicas.push_back(ReplicaStats{.endpoint = "host:7001",
                                           .up = true});
  expected.tenants.push_back(TenantStats{.name = "alice", .weight = 4.0});
  EXPECT_EQ(decode_service_stats(payload(false)), expected);
  EXPECT_EQ(decode_service_stats(payload(true)), expected);
}

TEST(ServiceCodec, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_service_stats(full_sample());
  bytes.push_back(0);
  EXPECT_THROW(decode_service_stats(bytes), core::CodecError);
}

TEST(ServiceCodec, RepeatedNamesKindsAndCountsThrowCodecError) {
  // A payload of `scalars` followed by no replica and no tenant rows.
  const auto with_scalars =
      [](std::uint32_t count,
         const std::vector<std::uint8_t>& entries) {
        std::vector<std::uint8_t> out;
        core::codec::put_u32(out, count);
        core::codec::put_bytes(out, entries.data(), entries.size());
        core::codec::put_u32(out, 0);
        core::codec::put_u32(out, 0);
        return out;
      };

  std::vector<std::uint8_t> repeated;
  put_u64_entry(repeated, "batches", 1);
  put_u64_entry(repeated, "batches", 2);
  EXPECT_THROW(decode_service_stats(with_scalars(2, repeated)),
               core::CodecError);

  // Repeated unknown names are refused too, and so are repeats inside
  // a row.
  std::vector<std::uint8_t> repeated_unknown;
  put_u64_entry(repeated_unknown, "future", 1);
  put_string_entry(repeated_unknown, "future", "x");
  EXPECT_THROW(decode_service_stats(with_scalars(2, repeated_unknown)),
               core::CodecError);
  std::vector<std::uint8_t> row_repeat;
  core::codec::put_u32(row_repeat, 0);  // no scalars
  core::codec::put_u32(row_repeat, 1);  // one replica row
  core::codec::put_u32(row_repeat, 2);
  put_string_entry(row_repeat, "replica", "a:1");
  put_string_entry(row_repeat, "replica", "b:2");
  core::codec::put_u32(row_repeat, 0);
  EXPECT_THROW(decode_service_stats(row_repeat), core::CodecError);

  // A kind byte past the three kinds, on a name nobody knows.
  std::vector<std::uint8_t> unknown_kind;
  put_name(unknown_kind, "future", 3);
  core::codec::put_u64(unknown_kind, 0);
  EXPECT_THROW(decode_service_stats(with_scalars(1, unknown_kind)),
               core::CodecError);

  // A known name carrying the wrong kind.
  std::vector<std::uint8_t> wrong_kind;
  put_f64_entry(wrong_kind, "batches", 1.0);
  EXPECT_THROW(decode_service_stats(with_scalars(1, wrong_kind)),
               core::CodecError);

  // Counts the bytes left cannot hold, before anything is reserved.
  EXPECT_THROW(decode_service_stats(with_scalars(0xffffffffu, {})),
               core::CodecError);
  std::vector<std::uint8_t> many_rows;
  core::codec::put_u32(many_rows, 0);
  core::codec::put_u32(many_rows, 0x40000000u);
  EXPECT_THROW(decode_service_stats(many_rows), core::CodecError);
}

TEST(ServiceCodec, MutatedPayloadsDecodeOrThrowCodecError) {
  const ServiceStats stats = full_sample();
  ASSERT_EQ(stats.replicas.size(), 2u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  const std::vector<std::uint8_t> bytes = encode_service_stats(stats);

  // Every entry and row is needed to reach the end, so every proper
  // prefix is refused.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_service_stats(
                     std::span<const std::uint8_t>(bytes.data(), cut)),
                 core::CodecError)
        << "cut=" << cut;
  }

  // Every single-bit flip and every whole-byte flip at every offset.
  std::size_t decoded = 0;
  std::size_t refused = 0;
  std::vector<std::uint8_t> mutated = bytes;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit <= 8; ++bit) {
      const auto mask =
          static_cast<std::uint8_t>(bit == 8 ? 0xff : 1u << bit);
      mutated[at] ^= mask;
      try {
        (void)decode_service_stats(mutated);
        ++decoded;
      } catch (const core::CodecError&) {
        ++refused;
      } catch (...) {
        ADD_FAILURE() << "non-codec exception at=" << at
                      << " mask=" << static_cast<int>(mask);
      }
      mutated[at] ^= mask;
    }
  }
  // Flips inside values decode; flips in counts, lengths and kinds are
  // refused. Both must occur, or the loop tested nothing.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace psc::service
