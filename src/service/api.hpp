// The service-facing API: one ServiceRequest/ServiceResponse pair shared
// by every caller of SearchService -- in-process code submits the structs
// directly, the network front-end (src/net/) decodes its Search frame
// into the same ServiceRequest and encodes the same ServiceResponse back
// out. Keeping the pair here (not in net/) is what guarantees a remote
// query and a local one take the identical path through the service, so
// cross-client coalescing and the stats counters mean the same thing for
// both.
//
// The codecs follow the store's hardened-reader discipline (every count
// and length bounds-checked against the bytes left before use); see
// core/result_codec for the shared primitives and the match section
// they embed.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bio/sequence.hpp"
#include "core/result_codec.hpp"

namespace psc::service {

/// QueryResult wire-format version; bump on layout change.
inline constexpr std::uint32_t kQueryResultCodecVersion = 1;

/// The tenant every request without an explicit identity is billed to:
/// hello-less connections, in-process callers that leave
/// ServiceRequest::tenant empty, and tools run without --tenant.
inline constexpr const char* kDefaultTenantName = "default";

/// The per-request option subset a caller may vary without reconfiguring
/// the service. Requests only coalesce into one shared pass when their
/// options agree (the pass is executed once for the whole group), so the
/// worker groups by bank prefix plus *every option field exactly*
/// (QueryOptions::group_key) -- never by fingerprint alone.
///
/// Execution knobs that cannot change any output bit stay OUT of this
/// struct and of group_key: the step-2/step-3 kernel selections
/// (--step2-kernel / --step3-kernel) live in the service-level
/// PipelineOptions because every kernel tier is bit-identical, so a
/// coalesced pass is valid for its whole group no matter which kernel
/// the service happens to run. Adding a field here is only required
/// when the option can alter results.
struct QueryOptions {
  double e_value_cutoff = 1e-3;
  bool with_traceback = false;
  bool composition_based_stats = false;
  /// E-value search space override in residues; 0 means "use the subject
  /// bank's own residue total" (the single-node default). A router fans
  /// one query across shard-holding replicas and sets this to the
  /// manifest's whole-set total on every per-shard request, which is
  /// what keeps each replica's E-values -- and therefore the merged
  /// byte stream -- identical to an unsharded node (DESIGN.md §14).
  /// Alters results, so it participates in group_key().
  double search_space_residues = 0.0;

  /// Exact grouping key: the cutoff's and search-space's bit patterns
  /// plus the flag bits (see CoalesceKey for the contract). Distinct
  /// option sets always map to distinct keys (it is the fields
  /// themselves, not a hash), so two requests can only coalesce when a
  /// single pass is valid for both. Compared bitwise, so values that
  /// differ only in representation (-0.0 vs 0.0, NaN payloads) count as
  /// different -- the safe direction for a coalescing decision.
  struct CoalesceKey group_key() const noexcept;

  /// One-word *hash* of the options for logs and stats. NOT injective
  /// (128 bits of doubles plus 2 flag bits fold into one word, so the
  /// multiply-xor collides by pigeonhole); never use it to decide
  /// whether two option sets may share a pass -- that is group_key().
  std::uint64_t fingerprint() const noexcept;
};

/// The one key that decides whether two requests may share a coalesced
/// pass. Its field partition is the multi-tenant correctness contract:
///
///  * Fields that AFFECT RESULTS are *in* the key, bit for bit: the
///    E-value cutoff, the search-space override, and the traceback /
///    composition flags (QueryOptions::group_key packs them into
///    `bits`). Two requests coalesce only when a single pass produces
///    byte-identical output for both.
///  * Fields that only AFFECT SCHEDULING are provably *excluded*
///    because this struct cannot hold them: tenant identity, arrival
///    order, connection, and quota state never enter the key. Two
///    tenants submitting identical queries against the same bank still
///    share one pass -- the pass is billed to *each* member tenant's
///    accounting (admitted/completed/latency), and the fair scheduler
///    debits every member's own share, so coalescing never changes who
///    pays, and identity never changes what runs.
///
/// `fingerprint()` is the non-injective log-friendly hash of the same
/// fields; it must never gate coalescing (pigeonhole collisions).
struct CoalesceKey {
  /// {e_value_cutoff bits, search_space_residues bits, flag bits}.
  std::array<std::uint64_t, 3> bits{};

  friend bool operator==(const CoalesceKey&, const CoalesceKey&) = default;
};

/// Who a request is billed to. Rides inside ServiceRequest so every
/// layer (service queue, router fan-out, stats) sees the same identity;
/// the wire boundary fills it from the connection's kHello handshake.
/// Deliberately NOT part of CoalesceKey: identity affects scheduling
/// and accounting, never results.
struct TenantContext {
  /// Empty means "unidentified" and is normalized to kDefaultTenantName
  /// at the admission point.
  std::string name;
};

/// One unit of service work: a protein query bank aimed at the bank
/// stored under `bank_prefix` (<prefix>.pscbank + <prefix>.pscidx).
struct ServiceRequest {
  bio::SequenceBank query{bio::SequenceKind::kProtein};
  std::string bank_prefix;
  QueryOptions options;
  TenantContext tenant;
};

/// What one submitted query bank gets back.
struct QueryResult {
  /// Matches with bank0_sequence remapped to indices into the *submitted*
  /// query bank (the coalesced pass's combined numbering never leaks).
  std::vector<core::Match> matches;
  double latency_seconds = 0.0;    ///< submit() to completion
  std::size_t batch_size = 0;      ///< queries sharing this pass
  bool bank_was_resident = false;  ///< target served from the LRU cache
};

/// The response side of the pair. A search either yields a QueryResult or
/// an exception on the future; the wire boundary translates the latter
/// into typed error frames (net/wire.hpp).
using ServiceResponse = QueryResult;

/// One replica's health and traffic as seen by a router: which endpoint
/// it is, whether the health checker currently believes it is up, and
/// the per-replica request counters the hedging/retry policy exposes.
/// Rides inside ServiceStats so the existing Stats/StatsResult frames
/// surface cluster state without a new message type.
struct ReplicaStats {
  std::string endpoint;            ///< "host:port"
  bool up = false;                 ///< last health probe succeeded
  std::uint64_t inflight = 0;      ///< attempts running right now
  std::uint64_t requests = 0;      ///< attempts started (incl. hedges)
  std::uint64_t retries = 0;       ///< attempts that were retries
  std::uint64_t hedges = 0;        ///< attempts that were hedges
  std::uint64_t failures = 0;      ///< attempts that errored
  double p50_latency_seconds = 0.0;  ///< median completed-attempt latency
  double max_latency_seconds = 0.0;  ///< slowest completed attempt
  /// Health transitions: how many times this replica was
  /// benched (up -> down) and revived (down -> up). Counted on state
  /// *changes* only, so repeated probe failures bill one bench.
  std::uint64_t benched = 0;
  std::uint64_t revived = 0;

  friend bool operator==(const ReplicaStats&, const ReplicaStats&) = default;
};

/// One tenant's accounting row: what was admitted, what the
/// quota gates rejected, and what the admitted work cost. Rides inside
/// ServiceStats exactly like the replica table, so `psc_client --stats`
/// and snapshot() surface per-tenant state without a new message type.
struct TenantStats {
  std::string name;
  double weight = 1.0;             ///< fair-scheduler share weight
  std::uint64_t admitted = 0;      ///< requests past every quota gate
  std::uint64_t rejected = 0;      ///< typed quota/admission rejections
  std::uint64_t completed = 0;     ///< admitted requests that succeeded
  std::uint64_t failed = 0;        ///< admitted requests that errored
  std::uint64_t queued = 0;        ///< gauge: admitted, not yet finished
  double total_latency_seconds = 0.0;  ///< sum over completed requests
  double max_latency_seconds = 0.0;    ///< slowest completed request
  std::uint64_t query_residues = 0;    ///< admitted query residues
  std::uint64_t resident_bytes = 0;    ///< gauge: charged bank bytes
  std::uint64_t hedges = 0;            ///< hedge budget spends (router)
  std::uint64_t hedges_denied = 0;     ///< hedges the budget refused

  friend bool operator==(const TenantStats&, const TenantStats&) = default;
};

/// Monotonic service-level counters plus snapshot-time gauges. This
/// struct *is* the payload of the network Stats frame, field for field
/// (see the field tables below), so a remote client sees exactly what
/// SearchService::snapshot() returns.
struct ServiceStats {
  std::uint64_t queries_submitted = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_failed = 0;
  std::uint64_t batches = 0;           ///< shared passes executed
  std::uint64_t cache_hits = 0;        ///< batches served from residents
  std::uint64_t cache_misses = 0;      ///< batches that loaded from disk
  std::uint64_t evictions = 0;         ///< residents dropped by LRU
  std::size_t max_batch = 0;           ///< largest coalesced batch
  double total_latency_seconds = 0.0;  ///< sum over completed queries
  /// Per-batch latency (enqueue of the batch's earliest member to batch
  /// completion): the quantities a client needs to judge service health
  /// without bookkeeping every reply itself.
  double total_batch_latency_seconds = 0.0;  ///< sum over batches
  double max_batch_latency_seconds = 0.0;    ///< slowest batch so far
  double mean_batch_latency_seconds = 0.0;   ///< filled at snapshot time
  /// Pending requests right now: still queued plus drained into the
  /// worker's scheduler but not yet served.
  std::size_t queue_depth = 0;
  std::size_t resident_banks = 0;      ///< resident targets (shard sets)
  /// Resident shard files across all targets (a plain unsharded bank
  /// counts as one shard); this is what the cache capacity bounds.
  std::size_t resident_shards = 0;

  // Board-residency gauges: the accelerator board cache's accounting
  // (rasc/board_cache.hpp). All zero when the service runs a host step-2
  // backend.
  std::uint64_t board_bitstream_loads = 0;  ///< FPGA configurations paid
  std::uint64_t board_bank_uploads = 0;     ///< bank images DMA'd to SRAM
  std::uint64_t board_swaps = 0;            ///< uploads evicting an image
  std::uint64_t bank_uploads_skipped = 0;   ///< served by resident images
  double board_upload_seconds = 0.0;        ///< modeled bank DMA paid
  double board_upload_seconds_saved = 0.0;  ///< modeled bank DMA avoided
  /// Total modeled accelerator seconds across RASC step-2 passes (the
  /// quantity the residency bench's throughput ratio is computed over).
  double accel_modeled_seconds = 0.0;

  // Scheduler counters: how the worker ordered its batches.
  std::uint64_t scheduler_rounds = 0;       ///< groups served
  std::uint64_t scheduler_reorders = 0;     ///< picks passing over an older group
  std::uint64_t starvation_promotions = 0;  ///< aging-guard forced picks
  std::uint64_t bank_switches = 0;          ///< picks changing the target bank
  /// Active scheduling policy ("fifo" / "affinity").
  std::string scheduler_policy;

  /// Per-replica rows. Empty for a single-node service; a router fills
  /// one row per configured replica endpoint.
  std::vector<ReplicaStats> replicas;

  /// Whether the weighted-fair (DRR) scheduler is active.
  bool fair_scheduler = false;
  /// Per-tenant accounting rows, sorted by tenant name.
  std::vector<TenantStats> tenants;

  // Live-ingest block: the store-format-v3 refresh path.
  std::uint64_t manifest_refreshes = 0;   ///< kRefreshManifest adoptions
  /// Shards adopted from an already-resident generation instead of
  /// re-read from disk when a refreshed manifest was loaded -- the gauge
  /// that proves an append refresh costs one tail shard, not a reload.
  std::uint64_t refresh_shards_reused = 0;
  /// Resident shards whose archive was compressed (owned decompressed
  /// images rather than mmap views).
  std::size_t resident_compressed_shards = 0;
  /// Highest manifest revision this service has served or adopted
  /// (0 until a v3 sharded store is touched).
  std::uint64_t store_revision = 0;

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

/// Appends the versioned QueryResult encoding (header fields followed by
/// the embedded match section) to `out`.
void append_query_result(std::vector<std::uint8_t>& out,
                         const QueryResult& result);
std::vector<std::uint8_t> encode_query_result(const QueryResult& result);

/// Decodes a whole-buffer QueryResult; throws core::CodecError on
/// truncation, version skew or trailing bytes.
QueryResult decode_query_result(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------------
// Stats field tables. Each lists every field of its struct once: the
// field's wire name and its member, in print order. The codec below and
// psc_client's printer loop over these, so a new stat is one line here.
// `visit(name, member)` runs once per field; the member is const when
// the row is. Members are std::uint64_t (or std::size_t), double, bool or
// std::string. The ServiceStats table lists its scalars; the replica and
// tenant rows have tables of their own.

template <typename Row, typename Struct>
concept StatsRowOf = std::same_as<std::remove_const_t<Row>, Struct>;

template <typename Row, typename Visit>
  requires StatsRowOf<Row, ServiceStats>
void for_each_stat_field(Row& stats, Visit&& visit) {
  visit("queries_submitted", stats.queries_submitted);
  visit("queries_completed", stats.queries_completed);
  visit("queries_failed", stats.queries_failed);
  visit("batches", stats.batches);
  visit("cache_hits", stats.cache_hits);
  visit("cache_misses", stats.cache_misses);
  visit("evictions", stats.evictions);
  visit("max_batch", stats.max_batch);
  visit("total_latency_seconds", stats.total_latency_seconds);
  visit("total_batch_latency_seconds", stats.total_batch_latency_seconds);
  visit("max_batch_latency_seconds", stats.max_batch_latency_seconds);
  visit("mean_batch_latency_seconds", stats.mean_batch_latency_seconds);
  visit("queue_depth", stats.queue_depth);
  visit("resident_banks", stats.resident_banks);
  visit("resident_shards", stats.resident_shards);
  visit("board_bitstream_loads", stats.board_bitstream_loads);
  visit("board_bank_uploads", stats.board_bank_uploads);
  visit("board_swaps", stats.board_swaps);
  visit("bank_uploads_skipped", stats.bank_uploads_skipped);
  visit("board_upload_seconds", stats.board_upload_seconds);
  visit("board_upload_seconds_saved", stats.board_upload_seconds_saved);
  visit("accel_modeled_seconds", stats.accel_modeled_seconds);
  visit("scheduler_rounds", stats.scheduler_rounds);
  visit("scheduler_reorders", stats.scheduler_reorders);
  visit("starvation_promotions", stats.starvation_promotions);
  visit("bank_switches", stats.bank_switches);
  visit("scheduler_policy", stats.scheduler_policy);
  visit("manifest_refreshes", stats.manifest_refreshes);
  visit("refresh_shards_reused", stats.refresh_shards_reused);
  visit("resident_compressed_shards", stats.resident_compressed_shards);
  visit("store_revision", stats.store_revision);
  visit("fair_scheduler", stats.fair_scheduler);
}

template <typename Row, typename Visit>
  requires StatsRowOf<Row, ReplicaStats>
void for_each_stat_field(Row& replica, Visit&& visit) {
  visit("replica", replica.endpoint);
  visit("up", replica.up);
  visit("inflight", replica.inflight);
  visit("requests", replica.requests);
  visit("retries", replica.retries);
  visit("hedges", replica.hedges);
  visit("failures", replica.failures);
  visit("benched", replica.benched);
  visit("revived", replica.revived);
  visit("p50_latency_seconds", replica.p50_latency_seconds);
  visit("max_latency_seconds", replica.max_latency_seconds);
}

template <typename Row, typename Visit>
  requires StatsRowOf<Row, TenantStats>
void for_each_stat_field(Row& tenant, Visit&& visit) {
  visit("tenant", tenant.name);
  visit("weight", tenant.weight);
  visit("admitted", tenant.admitted);
  visit("rejected", tenant.rejected);
  visit("completed", tenant.completed);
  visit("failed", tenant.failed);
  visit("queued", tenant.queued);
  visit("total_latency_seconds", tenant.total_latency_seconds);
  visit("max_latency_seconds", tenant.max_latency_seconds);
  visit("query_residues", tenant.query_residues);
  visit("resident_bytes", tenant.resident_bytes);
  visit("hedges", tenant.hedges);
  visit("hedges_denied", tenant.hedges_denied);
}

/// Encodes `stats` as one self-describing keyed list (little-endian):
///
///   entry list:  u32 count | count x entry
///   entry:       u32 name length | name | u8 kind | value
///   value:       kind 0 = u64, 1 = f64, 2 = u32 length | string bytes
///   payload:     ServiceStats scalars (entry list)
///                | u32 replica rows | one entry list per replica
///                | u32 tenant rows | one entry list per tenant
///
/// Bools travel as u64 0/1. There is no version word: the decoder skips
/// names it does not know and leaves fields the payload omits at their
/// defaults, so adding a stat needs neither a version nor a negotiation.
std::vector<std::uint8_t> encode_service_stats(const ServiceStats& stats);

/// Decodes a whole-buffer stats payload, treating it as untrusted: every
/// count and length is bounded by the bytes left before anything is
/// reserved, and truncation, an unknown kind, a known name with the wrong
/// kind, a name repeated within one entry list and trailing bytes all
/// throw core::CodecError.
ServiceStats decode_service_stats(std::span<const std::uint8_t> data);

}  // namespace psc::service
