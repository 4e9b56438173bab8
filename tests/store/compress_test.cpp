// Format v3 compression: the LZSS codec itself, the compressed
// bank/index archives it backs, and the crafted-file suite that proves
// every malformed compressed section is a typed kCorrupt/kChecksum --
// never an oversized allocation or an out-of-bounds read (run under
// ASan in CI).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/compress.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/mmap_file.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace psc::store {
namespace {

std::string temp_path(const std::string& name) {
  return psc::test::temp_dir() + "/" + name;
}

bio::SequenceBank make_bank(std::uint64_t seed, int count, int length) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < count; ++i) {
    bank.add(sim::generate_protein("s" + std::to_string(i), length, rng));
  }
  return bank;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StoreErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a StoreError";
  return StoreErrorCode::kIo;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t size) {
  // Repetitive: every LZSS implementation worth the name shrinks this.
  const std::string motif = "SEEDMODELSEEDMODELRASC100";
  std::vector<std::uint8_t> out;
  out.reserve(size);
  while (out.size() < size) {
    out.push_back(static_cast<std::uint8_t>(motif[out.size() % motif.size()]));
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Lzss, RoundTripsRepetitiveRandomAndEmptyInputs) {
  for (const auto& raw :
       {pattern_bytes(10000), random_bytes(4096, 77),
        std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{42},
        random_bytes(3, 5)}) {
    const std::vector<std::uint8_t> stream = lzss_compress(raw);
    const std::vector<std::uint8_t> back =
        lzss_decompress(stream, raw.size(), "test");
    ASSERT_EQ(back, raw);
  }
  // The repetitive input really compresses (the point of the mode).
  EXPECT_LT(lzss_compress(pattern_bytes(10000)).size(), 2000u);
}

/// Bytes drawn from `alphabet` letters starting at 'A': small alphabets
/// give long hash chains and many competing matches.
std::vector<std::uint8_t> small_alphabet_bytes(std::size_t size,
                                               std::uint64_t alphabet,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>('A' + rng.bounded(alphabet));
  return out;
}

/// `block` followed by its first `echo` bytes: the echo sits exactly
/// block.size() bytes back, so it is matchable only within the window.
std::vector<std::uint8_t> echoed(std::vector<std::uint8_t> block,
                                 std::size_t echo) {
  block.insert(block.end(), block.begin(),
               block.begin() + static_cast<std::ptrdiff_t>(echo));
  return block;
}

TEST(Lzss, TokenStreamMatchesGoldenDigests) {
  // The compressor's exact output on fixed inputs, recorded before the
  // matcher moved to a bounded link ring: speedups to the matcher must
  // never change a single emitted byte (compressed store files stay
  // byte-identical across builds). Inputs span long runs, chains far
  // longer than the chain cap, inputs several windows long (the link
  // ring wraps), and echoes at distances 65535 (the farthest legal
  // match) and 65536 (one past it).
  std::vector<std::uint8_t> runs(100000, 'A');
  for (int i = 0; i < 1000; ++i) runs.push_back(static_cast<std::uint8_t>(i));
  std::vector<std::uint8_t> proteins;
  {
    util::Xoshiro256 rng(41);
    for (int i = 0; i < 400; ++i) {
      const bio::Sequence seq = sim::generate_protein("p", 500, rng);
      proteins.insert(proteins.end(), seq.data(), seq.data() + seq.size());
    }
  }
  struct Golden {
    const char* name;
    std::vector<std::uint8_t> raw;
    std::size_t size;
    std::uint64_t digest;
  };
  const Golden cases[] = {
      {"pattern", pattern_bytes(10000),
       143, 0x237271e601d07f3aull},
      {"runs", runs,
       1508, 0xfae152807ce61405ull},
      {"dna-like", small_alphabet_bytes(200000, 4, 7),
       91325, 0x743a3ac918b4cae6ull},
      {"proteins", proteins,
       176281, 0x74a39b6fbe947c04ull},
      {"random", random_bytes(150000, 9),
       168750, 0x14ece09b94800dd4ull},
      {"echo-65535", echoed(random_bytes(65535, 11), 300),
       73732, 0xae5f128426ff7587ull},
      {"echo-65536", echoed(random_bytes(65536, 12), 300),
       74066, 0xca200c3134d72615ull},
  };
  for (const Golden& golden : cases) {
    const std::vector<std::uint8_t> stream = lzss_compress(golden.raw);
    EXPECT_EQ(stream.size(), golden.size) << golden.name;
    EXPECT_EQ(fnv1a64(stream.data(), stream.size()), golden.digest)
        << golden.name;
    EXPECT_EQ(lzss_decompress(stream, golden.raw.size(), "test"), golden.raw)
        << golden.name;
  }
}

TEST(Lzss, RejectsStructurallyImpossibleRawSize) {
  // A raw size no stream of this length could produce is refused before
  // any allocation of that size -- the hostile-header allocation guard.
  const std::vector<std::uint8_t> stream = lzss_compress(pattern_bytes(100));
  EXPECT_EQ(code_of([&] {
              lzss_decompress(stream, stream.size() * kMaxExpansionRatio + 1,
                              "test");
            }),
            StoreErrorCode::kCorrupt);
  // An empty stream can only produce zero bytes.
  EXPECT_EQ(code_of([&] { lzss_decompress({}, 1, "test"); }),
            StoreErrorCode::kCorrupt);
}

TEST(Lzss, RejectsTruncationTrailingBytesAndWrongRawSize) {
  const std::vector<std::uint8_t> raw = pattern_bytes(5000);
  std::vector<std::uint8_t> stream = lzss_compress(raw);

  std::vector<std::uint8_t> truncated(stream.begin(), stream.end() - 1);
  EXPECT_EQ(code_of([&] { lzss_decompress(truncated, raw.size(), "test"); }),
            StoreErrorCode::kCorrupt);

  std::vector<std::uint8_t> padded = stream;
  padded.push_back(0);
  EXPECT_EQ(code_of([&] { lzss_decompress(padded, raw.size(), "test"); }),
            StoreErrorCode::kCorrupt);

  // Under-declared raw size: the stream produces more than promised.
  EXPECT_EQ(code_of([&] { lzss_decompress(stream, raw.size() - 1, "test"); }),
            StoreErrorCode::kCorrupt);
}

TEST(CompressedBank, PairsWithUncompressedSaveByteForByte) {
  // The same bank, saved both ways: identical checksum (it digests the
  // *uncompressed* payload), identical sequences on load, and the
  // compressed file is the smaller one for compressible content.
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const bio::SequenceBank seedbank = make_bank(40, 4, 80);
  for (int repeat = 0; repeat < 6; ++repeat) {
    for (const bio::Sequence& protein : seedbank) {
      bank.add(bio::Sequence(protein.id() + "_" + std::to_string(repeat),
                             bank.kind(), protein.residues()));
    }
  }
  const std::string plain = temp_path("cmp_plain.pscbank");
  const std::string packed = temp_path("cmp_packed.pscbank");
  const std::uint64_t plain_sum = save_bank(plain, bank);
  const std::uint64_t packed_sum = save_bank(packed, bank, true);
  EXPECT_EQ(plain_sum, packed_sum);

  const BankFileInfo plain_info = inspect_bank(plain);
  const BankFileInfo packed_info = inspect_bank(packed);
  EXPECT_EQ(plain_info.compression, kCompressionNone);
  EXPECT_EQ(packed_info.compression, kCompressionLzss);
  EXPECT_EQ(packed_info.version, kFormatVersion);
  EXPECT_EQ(packed_info.sequence_count, bank.size());
  EXPECT_EQ(packed_info.payload_checksum, plain_sum);
  EXPECT_LT(slurp(packed).size(), slurp(plain).size());

  const bio::SequenceBank loaded = load_bank(packed);
  ASSERT_EQ(loaded.size(), bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(loaded[i].id(), bank[i].id());
    EXPECT_EQ(loaded[i].residues(), bank[i].residues());
  }
  std::remove(plain.c_str());
  std::remove(packed.c_str());
}

TEST(CompressedIndex, LoadsIdenticalTableAndKeepsPairingCheck) {
  const bio::SequenceBank bank = make_bank(41, 6, 60);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable fresh(bank, model);
  const std::string bank_path = temp_path("cmp_pair.pscbank");
  const std::string index_path = temp_path("cmp_pair.pscidx");
  const std::uint64_t checksum = save_bank(bank_path, bank, true);
  save_index(index_path, fresh, model, checksum, true);

  EXPECT_EQ(inspect_index(index_path).compression, kCompressionLzss);
  const LoadedIndex loaded =
      load_index(index_path, model, &bank, true, checksum);
  EXPECT_EQ(loaded.bank_checksum, checksum);
  ASSERT_EQ(loaded.table.total_occurrences(), fresh.total_occurrences());
  const auto fresh_occ = fresh.all_occurrences();
  const auto loaded_occ = loaded.table.all_occurrences();
  for (std::size_t i = 0; i < fresh_occ.size(); ++i) {
    ASSERT_EQ(loaded_occ[i], fresh_occ[i]);
  }
  // The bank/index pairing check survives compression.
  EXPECT_EQ(code_of([&] {
              load_index(index_path, model, &bank, true, checksum ^ 0x5a);
            }),
            StoreErrorCode::kBankMismatch);
  std::remove(bank_path.c_str());
  std::remove(index_path.c_str());
}

TEST(CompressedBank, CraftedDamageIsTypedNotAnAllocation) {
  // The satellite-4 suite: every way a hostile compressed file can lie
  // comes back as a typed error, with the structurally-impossible raw
  // size rejected before any oversized allocation happens.
  const bio::SequenceBank bank = make_bank(42, 8, 70);
  const std::string path = temp_path("cmp_crafted.pscbank");
  save_bank(path, bank, true);
  const std::vector<char> good = slurp(path);
  ASSERT_GT(good.size(), sizeof(FileHeader) + 8);

  // Truncated compressed stream.
  spit(path, {good.begin(), good.end() - 4});
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);

  // Bit-flipped payload byte: either the token stream goes structurally
  // wrong (kCorrupt) or it decodes to different bytes and the checksum
  // -- still over the uncompressed payload -- catches it (kChecksum).
  std::vector<char> flipped = good;
  flipped[sizeof(FileHeader) + (good.size() - sizeof(FileHeader)) / 2] ^= 0x20;
  spit(path, flipped);
  const StoreErrorCode flip_code = code_of([&] { load_bank(path); });
  EXPECT_TRUE(flip_code == StoreErrorCode::kCorrupt ||
              flip_code == StoreErrorCode::kChecksum);

  // A lying uncompressed size far past what the stream could expand to:
  // must be refused up front (no 2^60-byte allocation), as kCorrupt.
  std::vector<char> lying = good;
  const std::uint64_t absurd = std::uint64_t{1} << 60;
  std::memcpy(lying.data() + offsetof(FileHeader, payload_bytes), &absurd,
              sizeof(absurd));
  spit(path, lying);
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);

  // Unknown compression tag.
  std::vector<char> bad_tag = good;
  const std::uint32_t tag2 = 2;
  std::memcpy(bad_tag.data() + offsetof(FileHeader, reserved), &tag2,
              sizeof(tag2));
  spit(path, bad_tag);
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);

  // A compression tag on a pre-v3 header: v1/v2 writers always wrote 0
  // there, so this combination is structural damage, not a feature.
  std::vector<char> v2_tagged = good;
  v2_tagged[8] = 2;  // FileHeader::version (little-endian u32)
  spit(path, v2_tagged);
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);

  spit(path, good);
  EXPECT_EQ(load_bank(path).size(), bank.size());
  std::remove(path.c_str());
}

TEST(MmapFileTest, ZeroLengthFileIsAnEmptyViewNotAnErrno) {
  // A zero-length file is legal on disk (an empty tail delta mid-write);
  // mmap(len=0) is EINVAL on Linux, so open() must special-case it into
  // an empty view, and the store readers then reject it as the typed
  // kCorrupt "truncated before header" -- not a raw errno surprise.
  const std::string path = temp_path("zero_len.pscbank");
  spit(path, {});
  const MmapFile file = MmapFile::open(path);
  EXPECT_EQ(file.size(), 0u);
  EXPECT_TRUE(file.bytes().empty());
  EXPECT_EQ(code_of([&] { load_bank(path); }), StoreErrorCode::kCorrupt);
  EXPECT_EQ(code_of([&] { inspect_bank(path); }), StoreErrorCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(DecompressStoreImage, TagZeroIsTheUntouchedMmapFastPath) {
  const bio::SequenceBank bank = make_bank(43, 3, 40);
  const std::string path = temp_path("cmp_fastpath.pscbank");
  save_bank(path, bank);
  MmapFile file = MmapFile::open(path);
  const std::uint8_t* mapped = file.data();
  const std::size_t size = file.size();
  const MmapFile same = decompress_store_image(std::move(file), path);
  // Same mapping, same bytes: the uncompressed path stays zero-copy.
  EXPECT_EQ(same.data(), mapped);
  EXPECT_EQ(same.size(), size);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psc::store
