#include "service/api.hpp"

#include <algorithm>
#include <bit>
#include <string_view>

namespace psc::service {

namespace {

// QueryResult header flag bits.
constexpr std::uint32_t kFlagBankWasResident = 1u << 0;

// The kind byte of one stats entry (see encode_service_stats).
enum class StatKind : std::uint8_t { kU64 = 0, kF64 = 1, kString = 2 };

template <typename T>
constexpr StatKind stat_kind() {
  if constexpr (std::is_same_v<T, std::string>) {
    return StatKind::kString;
  } else if constexpr (std::is_same_v<T, double>) {
    return StatKind::kF64;
  } else {
    static_assert(std::is_integral_v<T>, "stats fields are u64/f64/string");
    return StatKind::kU64;  // counters, gauges and bools
  }
}

// Every entry holds at least a name length, a kind byte and a value of
// four bytes (an empty string's length); every row at least its count.
constexpr std::size_t kMinEntryBytes = 4 + 1 + 4;
constexpr std::size_t kMinRowBytes = 4;

void put_string(std::vector<std::uint8_t>& out, std::string_view text) {
  core::codec::put_u32(out, static_cast<std::uint32_t>(text.size()));
  core::codec::put_bytes(out, text.data(), text.size());
}

std::string_view get_string(core::codec::Reader& reader, const char* what) {
  const std::uint32_t size = reader.u32(what);
  const auto bytes = reader.bytes(size, what);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// Reads a count of items that each take at least `min_item_bytes`,
// refusing one the bytes left cannot hold before anyone reserves for it.
std::uint32_t get_count(core::codec::Reader& reader,
                        std::size_t min_item_bytes, const char* what) {
  const std::uint32_t count = reader.u32(what);
  if (count > reader.remaining() / min_item_bytes) {
    throw core::CodecError(std::string("codec: ") + what +
                           " exceeds payload");
  }
  return count;
}

template <typename Row>
void put_entries(std::vector<std::uint8_t>& out, const Row& row) {
  std::uint32_t count = 0;
  for_each_stat_field(row, [&](const char*, const auto&) { ++count; });
  core::codec::put_u32(out, count);
  for_each_stat_field(row, [&](const char* name, const auto& value) {
    using T = std::remove_cvref_t<decltype(value)>;
    put_string(out, name);
    out.push_back(static_cast<std::uint8_t>(stat_kind<T>()));
    if constexpr (stat_kind<T>() == StatKind::kString) {
      put_string(out, value);
    } else if constexpr (stat_kind<T>() == StatKind::kF64) {
      core::codec::put_f64(out, value);
    } else {
      core::codec::put_u64(out, static_cast<std::uint64_t>(value));
    }
  });
}

template <typename Row>
void put_rows(std::vector<std::uint8_t>& out, const std::vector<Row>& rows) {
  core::codec::put_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const Row& row : rows) put_entries(out, row);
}

// Reads one entry list into `row`: known names fill their member,
// unknown names are skipped.
template <typename Row>
void get_entries(core::codec::Reader& reader, Row& row) {
  const std::uint32_t count =
      get_count(reader, kMinEntryBytes, "stats entry count");
  std::vector<std::string_view> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string_view name = get_string(reader, "stats entry name");
    const auto kind =
        static_cast<StatKind>(reader.bytes(1, "stats entry kind")[0]);
    std::uint64_t bits = 0;
    std::string_view text;
    switch (kind) {
      case StatKind::kU64:
      case StatKind::kF64:
        bits = reader.u64("stats entry value");
        break;
      case StatKind::kString:
        text = get_string(reader, "stats entry string");
        break;
      default:
        throw core::CodecError("codec: unknown stats entry kind " +
                               std::to_string(static_cast<int>(kind)));
    }
    names.push_back(name);
    for_each_stat_field(row, [&](const char* field, auto& member) {
      if (name != field) return;
      using T = std::remove_cvref_t<decltype(member)>;
      if (kind != stat_kind<T>()) {
        throw core::CodecError("codec: stats entry " + std::string(name) +
                               " has the wrong kind");
      }
      if constexpr (std::is_same_v<T, std::string>) {
        member.assign(text);
      } else if constexpr (std::is_same_v<T, double>) {
        member = std::bit_cast<double>(bits);
      } else if constexpr (std::is_same_v<T, bool>) {
        member = bits != 0;
      } else {
        member = static_cast<T>(bits);
      }
    });
  }
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    throw core::CodecError("codec: stats entry name repeated");
  }
}

template <typename Row>
void get_rows(core::codec::Reader& reader, std::vector<Row>& rows,
              const char* what) {
  const std::uint32_t count = get_count(reader, kMinRowBytes, what);
  rows.resize(count);
  for (Row& row : rows) get_entries(reader, row);
}

}  // namespace

CoalesceKey QueryOptions::group_key() const noexcept {
  std::uint64_t cutoff_bits = 0;
  std::memcpy(&cutoff_bits, &e_value_cutoff, sizeof(e_value_cutoff));
  std::uint64_t space_bits = 0;
  std::memcpy(&space_bits, &search_space_residues,
              sizeof(search_space_residues));
  std::uint64_t flags = 0;
  if (with_traceback) flags |= 1u;
  if (composition_based_stats) flags |= 2u;
  return CoalesceKey{{cutoff_bits, space_bits, flags}};
}

std::uint64_t QueryOptions::fingerprint() const noexcept {
  // A hash, not a key: the multiply folds 130 bits of state into 64, so
  // collisions exist (e.g. cutoff bit patterns differing by the odd
  // multiplier's inverse times a flag delta). Grouping goes through
  // group_key(), which keeps the fields separate. The default search
  // space (0.0) contributes a zero term, so single-node fingerprints
  // are unchanged by the field's addition.
  const auto [cutoff_bits, space_bits, flags] = group_key().bits;
  const std::uint64_t mixed =
      cutoff_bits ^ (space_bits * 0xff51afd7ed558ccdull);
  return (mixed * 0x9e3779b97f4a7c15ull) ^ flags;
}

void append_query_result(std::vector<std::uint8_t>& out,
                         const QueryResult& result) {
  core::codec::put_u32(out, kQueryResultCodecVersion);
  std::uint32_t flags = 0;
  if (result.bank_was_resident) flags |= kFlagBankWasResident;
  core::codec::put_u32(out, flags);
  core::codec::put_u64(out, result.batch_size);
  core::codec::put_f64(out, result.latency_seconds);
  core::append_matches(out, result.matches);
}

std::vector<std::uint8_t> encode_query_result(const QueryResult& result) {
  std::vector<std::uint8_t> out;
  append_query_result(out, result);
  return out;
}

QueryResult decode_query_result(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  const std::uint32_t version = reader.u32("query result version");
  if (version != kQueryResultCodecVersion) {
    throw core::CodecError("codec: unsupported query result version " +
                           std::to_string(version));
  }
  const std::uint32_t flags = reader.u32("query result flags");
  QueryResult result;
  result.bank_was_resident = (flags & kFlagBankWasResident) != 0;
  result.batch_size =
      static_cast<std::size_t>(reader.u64("query result batch size"));
  result.latency_seconds = reader.f64("query result latency");
  result.matches = core::decode_matches(reader);
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after query result");
  }
  return result;
}

std::vector<std::uint8_t> encode_service_stats(const ServiceStats& stats) {
  std::vector<std::uint8_t> out;
  put_entries(out, stats);
  put_rows(out, stats.replicas);
  put_rows(out, stats.tenants);
  return out;
}

ServiceStats decode_service_stats(std::span<const std::uint8_t> data) {
  core::codec::Reader reader(data);
  ServiceStats stats;
  get_entries(reader, stats);
  get_rows(reader, stats.replicas, "replica row count");
  get_rows(reader, stats.tenants, "tenant row count");
  if (!reader.done()) {
    throw core::CodecError("codec: trailing bytes after service stats");
  }
  return stats;
}

}  // namespace psc::service
