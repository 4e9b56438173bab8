// The store container, once for every file kind: bank, index and
// manifest files, plain and LZSS where the kind allows it, go through
// the one reader (store/format) as owned images, so no damaged copy
// ever touches the disk. Kind-specific damage (payload layouts, meta
// checks, pairing) stays in store_test / shard_store_test /
// compress_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/mmap_file.hpp"
#include "store/shard_store.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace psc::store {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One saved file of one kind, and how its kind's loader decodes a
/// checked image of it.
struct Sample {
  std::string name;
  FileKind kind;
  Bytes bytes;
  std::function<void(StoreImage)> decode;
};

/// Both reader stages and the kind's decoder over an owned image.
void load(const Sample& sample, Bytes bytes, bool verify_checksum = true) {
  MmapFile file = MmapFile::from_owned(std::move(bytes));
  const FileHeader header = read_header(file.bytes(), sample.kind, "image");
  sample.decode(read_payload(std::move(file), header, sample.kind, "image",
                             verify_checksum));
}

StoreErrorCode code_of(const Sample& sample, Bytes bytes) {
  try {
    load(sample, std::move(bytes));
  } catch (const StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << sample.name << ": expected a StoreError";
  return StoreErrorCode::kIo;
}

template <typename T>
Bytes poke(Bytes bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

/// A small file of each kind: a three-sequence bank and its index under
/// a one-residue seed model (21 keys), each plain and LZSS, and a
/// two-shard manifest. Every sample decodes cleanly as saved.
class StoreFileSamples {
 public:
  StoreFileSamples() : model_(index::SeedModel::contiguous(1)) {
    util::Xoshiro256 rng(71);
    for (int i = 0; i < 3; ++i) {
      bank_.add(sim::generate_protein("s" + std::to_string(i), 14, rng));
    }
    const index::IndexTable table(bank_, model_);
    for (const bool compress : {false, true}) {
      const std::string suffix = compress ? " lzss" : " plain";
      const std::string bank_path = path("sample.pscbank");
      const std::string index_path = path("sample.pscidx");
      const std::uint64_t checksum = save_bank(bank_path, bank_, compress);
      save_index(index_path, table, model_, checksum, compress);
      samples_.push_back({"bank" + suffix, FileKind::kBank, slurp(bank_path),
                          [](StoreImage image) { decode_bank(image); }});
      samples_.push_back(
          {"index" + suffix, FileKind::kIndex, slurp(index_path),
           [this, checksum](StoreImage image) {
             decode_index(std::move(image), model_, &bank_, checksum);
           }});
      std::remove(bank_path.c_str());
      std::remove(index_path.c_str());
    }

    ShardManifest manifest;
    manifest.kind = bio::SequenceKind::kProtein;
    manifest.revision = 4;
    manifest.shards = {{0, 2, 28, 0x1234}, {2, 1, 14, 0x5678}};
    manifest.total_sequences = 3;
    manifest.total_residues = 42;
    const std::string manifest_file = path("sample.pscman");
    save_manifest(manifest_file, manifest);
    samples_.push_back({"manifest", FileKind::kManifest, slurp(manifest_file),
                        [](StoreImage image) { decode_manifest(image); }});
    std::remove(manifest_file.c_str());
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  static std::string path(const std::string& name) {
    return psc::test::temp_dir() + "/" + name;
  }

  index::SeedModel model_;
  bio::SequenceBank bank_{bio::SequenceKind::kProtein};
  std::vector<Sample> samples_;
};

TEST(StoreFile, SamplesLoadAsSaved) {
  const StoreFileSamples fixture;
  ASSERT_EQ(fixture.samples().size(), 5u);
  for (const Sample& sample : fixture.samples()) {
    SCOPED_TRACE(sample.name);
    ASSERT_GT(sample.bytes.size(), sizeof(FileHeader));
    EXPECT_NO_THROW(load(sample, sample.bytes));
  }
}

TEST(StoreFile, HeaderDamageIsTypedForEveryKind) {
  const StoreFileSamples fixture;
  constexpr std::size_t kVersion = offsetof(FileHeader, version);
  constexpr std::size_t kTag = offsetof(FileHeader, reserved);
  for (const Sample& sample : fixture.samples()) {
    SCOPED_TRACE(sample.name);
    const Bytes& good = sample.bytes;
    const FileKindInfo& info = file_kind_info(sample.kind);

    // Every truncation inside the header.
    for (std::size_t cut = 0; cut < sizeof(FileHeader); ++cut) {
      EXPECT_EQ(code_of(sample, Bytes(good.begin(), good.begin() + cut)),
                StoreErrorCode::kCorrupt)
          << "cut=" << cut;
    }

    // Each other kind's magic: a file of one kind is never another.
    for (const FileKindInfo& other : kFileKinds) {
      if (other.magic == info.magic) continue;
      EXPECT_EQ(code_of(sample, poke(good, 0, other.magic)),
                StoreErrorCode::kBadMagic)
          << "magic of " << other.name;
    }

    // Versions before the kind existed (the manifest arrived with v2)
    // and after the current one.
    for (const std::uint32_t version :
         {std::uint32_t{0}, info.min_version - 1, kFormatVersion + 1}) {
      EXPECT_EQ(code_of(sample, poke(good, kVersion, version)),
                StoreErrorCode::kBadVersion)
          << "version=" << version;
    }

    // Tags: none on a manifest, none before v3, and only LZSS after.
    if (!info.compressible) {
      EXPECT_EQ(code_of(sample, poke(good, kTag, kCompressionLzss)),
                StoreErrorCode::kCorrupt);
    }
    EXPECT_EQ(code_of(sample, poke(poke(good, kVersion, std::uint32_t{2}),
                                   kTag, kCompressionLzss)),
              StoreErrorCode::kCorrupt);
    EXPECT_EQ(code_of(sample, poke(good, kTag, std::uint32_t{2})),
              StoreErrorCode::kCorrupt);
  }
}

TEST(StoreFile, MutatedFilesLoadOrThrowStoreError) {
  // Every proper prefix and every whole-byte flip at every offset, read
  // with and without the checksum: with it, payload flips stop at the
  // digest; without it, they reach the kind's decoder (and, for LZSS,
  // the token decoder) as a resealed forgery would.
  const StoreFileSamples fixture;
  for (const Sample& sample : fixture.samples()) {
    SCOPED_TRACE(sample.name);
    const Bytes& good = sample.bytes;
    std::size_t loaded = 0;
    std::size_t refused = 0;
    const auto attempt = [&](Bytes bytes, bool verify, std::size_t at) {
      try {
        load(sample, std::move(bytes), verify);
        ++loaded;
      } catch (const StoreError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-store exception at=" << at << ": " << e.what();
      }
    };
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
      attempt(Bytes(good.begin(), good.begin() + cut), true, cut);
    }
    EXPECT_EQ(loaded, 0u) << "a proper prefix loaded";
    for (const bool verify : {true, false}) {
      Bytes mutated = good;
      for (std::size_t at = 0; at < good.size(); ++at) {
        mutated[at] ^= 0xff;
        attempt(mutated, verify, at);
        mutated[at] ^= 0xff;
      }
    }
    // Unchecked flips inside values (ids, residue checksums, the
    // digest word itself) load; flips in magic, lengths and counts are
    // refused. Both must occur, or the sweep tested nothing.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(refused, good.size());
  }
}

}  // namespace
}  // namespace psc::store
