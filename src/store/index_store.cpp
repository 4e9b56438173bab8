#include "store/index_store.hpp"

#include <cstring>
#include <span>

namespace psc::store {

// The zero-copy reader reinterprets file bytes as the in-memory arrays,
// so the format is only valid where these hold (true on every supported
// 64-bit little-endian target; the magic check rejects the rest).
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "index store requires 64-bit size_t");
static_assert(sizeof(index::Occurrence) == 8 &&
                  std::is_trivially_copyable_v<index::Occurrence>,
              "Occurrence must stay a packed pair of u32");

namespace {

/// The payload's leading sections: the recorded bank checksum (v2+;
/// 0 when the version has none) and the rest of the payload behind it.
struct IndexHead {
  std::uint64_t bank_checksum = 0;
  std::span<const std::uint8_t> body;
};

IndexHead read_index_head(const StoreImage& image) {
  const std::size_t extra =
      image.header.version >= 2 ? sizeof(std::uint64_t) : 0;  // v1: none
  const std::span<const std::uint8_t> payload = image.payload();
  if (payload.size() < extra) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index bank-checksum section truncated: " + image.path);
  }
  IndexHead head{0, payload.subspan(extra)};
  std::memcpy(&head.bank_checksum, payload.data(), extra);
  return head;
}

}  // namespace

void save_index(const std::string& path, const index::IndexTable& table,
                const index::SeedModel& model, std::uint64_t bank_checksum,
                bool compress) {
  const std::string& name = model.name();
  const std::span<const std::size_t> starts = table.starts();
  const std::span<const index::Occurrence> occurrences =
      table.all_occurrences();
  write_store_file(
      path, FileKind::kIndex,
      {model.fingerprint(), model.key_space(), occurrences.size(),
       name.size()},
      compress, [&](PayloadSink& sink) {
        static constexpr char kZeros[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        sink.write(&bank_checksum, sizeof(bank_checksum));
        sink.write(name.data(), name.size());
        sink.write(kZeros, pad8(name.size()) - name.size());
        sink.write(starts.data(), starts.size_bytes());
        sink.write(occurrences.data(), occurrences.size_bytes());
      });
}

IndexFileInfo inspect_index(const std::string& path) {
  // The model name lives in the payload, so inspection maps it (and
  // decodes a compressed one); the checksum is left to the loaders.
  const StoreImage image =
      read_store_file(path, FileKind::kIndex, /*verify_checksum=*/false);
  const FileHeader& header = image.header;
  const IndexHead head = read_index_head(image);
  if (header.meta[3] > head.body.size()) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index model name truncated: " + path);
  }
  IndexFileInfo info;
  info.version = header.version;
  info.compression = header.reserved;
  info.model_fingerprint = header.meta[0];
  info.key_space = header.meta[1];
  info.occurrence_count = header.meta[2];
  info.bank_checksum = head.bank_checksum;
  info.model_name.assign(reinterpret_cast<const char*>(head.body.data()),
                         header.meta[3]);
  return info;
}

LoadedIndex load_index(const std::string& path, const index::SeedModel& model,
                       const bio::SequenceBank* bank, bool verify_checksum,
                       std::uint64_t expected_bank_checksum) {
  return decode_index(
      read_store_file(path, FileKind::kIndex, verify_checksum), model, bank,
      expected_bank_checksum);
}

LoadedIndex decode_index(StoreImage image, const index::SeedModel& model,
                         const bio::SequenceBank* bank,
                         std::uint64_t expected_bank_checksum) {
  const FileHeader& header = image.header;
  const std::string& path = image.path;
  if (header.meta[0] != model.fingerprint()) {
    throw StoreError(
        StoreErrorCode::kModelMismatch,
        "index was built under a different seed model (file: " +
            std::to_string(header.meta[0]) +
            ", requested: " + std::to_string(model.fingerprint()) + "): " +
            path);
  }
  if (header.meta[1] != model.key_space()) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index key space disagrees with its fingerprint: " + path);
  }

  // Bank pairing, rejected before any table section is even sized: the
  // caller passes the checksum of the bank it intends to query (from
  // save_bank or inspect_bank); a recorded value that disagrees means
  // this index was built from a different bank. Either side being 0
  // (v1 file, or no expectation) skips the check.
  const IndexHead head = read_index_head(image);
  if (expected_bank_checksum != 0 && head.bank_checksum != 0 &&
      head.bank_checksum != expected_bank_checksum) {
    throw StoreError(StoreErrorCode::kBankMismatch,
                     "index belongs to a different bank (recorded bank "
                     "checksum disagrees): " +
                         path);
  }
  const std::uint64_t body_bytes = head.body.size();
  const std::uint8_t* body = head.body.data();

  // Section geometry, all bounds-checked against the payload length
  // before any span is formed. The element counts are file-controlled
  // u64s, so each is bounded against body_bytes (derived from the real
  // file length) before any multiplication or padding that could wrap;
  // only then are byte sizes derived.
  if (header.meta[3] > body_bytes ||
      header.meta[2] > body_bytes / sizeof(index::Occurrence)) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index section sizes disagree with header: " + path);
  }
  const std::uint64_t padded_name = pad8(header.meta[3]);
  const std::uint64_t starts_count = header.meta[1] + 1;
  const std::uint64_t starts_bytes = starts_count * sizeof(std::uint64_t);
  const std::uint64_t occ_bytes =
      header.meta[2] * sizeof(index::Occurrence);
  if (padded_name > body_bytes ||
      body_bytes - padded_name != starts_bytes + occ_bytes) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index section sizes disagree with header: " + path);
  }

  std::string model_name(reinterpret_cast<const char*>(body), header.meta[3]);
  const auto* starts =
      reinterpret_cast<const std::size_t*>(body + padded_name);
  const auto* occurrences = reinterpret_cast<const index::Occurrence*>(
      body + padded_name + starts_bytes);
  index::IndexTable table = [&] {
    try {
      return index::IndexTable::from_raw_spans({starts, starts_count},
                                               {occurrences, header.meta[2]});
    } catch (const std::invalid_argument& e) {
      throw StoreError(StoreErrorCode::kCorrupt,
                       std::string(e.what()) + ": " + path);
    }
  }();
  if (bank != nullptr && !table.consistent_with(*bank, model.width())) {
    throw StoreError(StoreErrorCode::kCorrupt,
                     "index occurrences fall outside the bank: " + path);
  }
  return LoadedIndex{std::move(image.file), std::move(table),
                     std::move(model_name), head.bank_checksum};
}

}  // namespace psc::store
