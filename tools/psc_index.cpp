// psc_index: build a bank + step-1 index once and save both to the
// persistent store, so every later search (psc_search --subject-index,
// the resident SearchService) starts from an O(mmap) load instead of a
// full rebuild.
//
//   $ ./psc_index --input=genome.fa --kind=dna --translate --out=genome
//       -> genome.pscbank (six-frame ORF fragments) + genome.pscidx
//   $ ./psc_index --input=bank.fa --kind=protein --out=bank
//   $ ./psc_index --input=nr.fa --out=nr --shard-max-bytes=1000000
//       -> nr.pscman + nr.shardNN.pscbank/.pscidx (queries fan out and
//          merge bit-identically to the unsharded store)
//   $ ./psc_index --inspect=genome      # print header info of saved files
#include <cstdio>
#include <string>

#include "bio/fasta.hpp"
#include "bio/translate.hpp"
#include "core/cli_options.hpp"
#include "index/index_table.hpp"
#include "store/bank_store.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace {

using namespace psc;

void inspect_pair(const std::string& prefix) {
  const store::IndexFileInfo info =
      store::inspect_index(prefix + ".pscidx");
  const store::BankFileInfo bank_info =
      store::inspect_bank(prefix + ".pscbank");
  const bio::SequenceBank bank = store::load_bank(prefix + ".pscbank");
  std::printf("%s.pscbank: %zu sequence(s), %zu residues, kind=%s%s\n",
              prefix.c_str(), bank.size(), bank.total_residues(),
              bank.kind() == bio::SequenceKind::kProtein ? "protein" : "dna",
              bank_info.compression != store::kCompressionNone
                  ? ", compressed"
                  : "");
  std::printf(
      "%s.pscidx: version %u, seed model %s (fingerprint %016llx), "
      "%llu keys, %llu occurrence(s), bank checksum %016llx\n",
      prefix.c_str(), info.version, info.model_name.c_str(),
      static_cast<unsigned long long>(info.model_fingerprint),
      static_cast<unsigned long long>(info.key_space),
      static_cast<unsigned long long>(info.occurrence_count),
      static_cast<unsigned long long>(info.bank_checksum));
}

int inspect(const std::string& prefix) {
  if (!store::manifest_exists(prefix)) {
    inspect_pair(prefix);
    return 0;
  }
  const store::ShardManifest manifest =
      store::load_manifest(store::manifest_path(prefix));
  std::printf(
      "%s.pscman: version %u, revision %llu, %zu shard(s), "
      "%llu sequence(s), %llu residues, kind=%s, set checksum %016llx\n",
      prefix.c_str(), manifest.version,
      static_cast<unsigned long long>(manifest.revision),
      manifest.shards.size(),
      static_cast<unsigned long long>(manifest.total_sequences),
      static_cast<unsigned long long>(manifest.total_residues),
      manifest.kind == bio::SequenceKind::kProtein ? "protein" : "dna",
      static_cast<unsigned long long>(manifest.set_checksum));
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const store::ShardInfo& shard = manifest.shards[i];
    std::printf("  shard %02zu: base %llu, %llu sequence(s), %llu residues\n",
                i, static_cast<unsigned long long>(shard.sequence_base),
                static_cast<unsigned long long>(shard.sequence_count),
                static_cast<unsigned long long>(shard.residues));
    inspect_pair(store::shard_prefix(prefix, i));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("psc_index",
                       "build a sequence bank + seed index and save them to "
                       "the persistent store (.pscbank / .pscidx)");
  args.add_option("input", "", "input FASTA file");
  args.add_option("kind", "protein", "input kind: protein | dna");
  args.add_flag("translate",
                "six-frame-translate a DNA input into the protein fragment "
                "bank the pipeline compares against");
  core::add_seed_model_option(args, core::SeedModelKind::kSubsetW4);
  core::add_threads_option(args, "index build threads (0 = all cores)");
  args.add_flag("serial-index",
                "build the index with the serial constructor instead of the "
                "parallel builder (escape hatch; the layouts are identical)");
  args.add_option("out", "", "output path prefix (writes <out>.pscbank and "
                             "<out>.pscidx)");
  args.add_option("shard-max-bytes", "0",
                  "split the bank into shards whose encoded payload stays at "
                  "or under this many bytes (writes <out>.pscman plus "
                  "<out>.shardNN.pscbank/.pscidx); 0 = unsharded");
  args.add_flag("append",
                "live ingest: append --input as a new tail shard of the "
                "existing sharded store at --out and publish a "
                "bumped-revision manifest (existing shard files are never "
                "rewritten; a serving psc_serve/psc_router adopts the new "
                "revision via a refresh, not a restart)");
  args.add_flag("compress",
                "write shard archives LZSS-compressed (cold-storage mode: "
                "smaller files, decompressed once at load instead of "
                "mmap'd; results are byte-identical either way)");
  args.add_option("inspect", "",
                  "print header info for a saved <prefix> instead of building");
  if (!args.parse(argc, argv)) return 1;

  try {
    if (!args.get("inspect").empty()) return inspect(args.get("inspect"));

    const std::string input = args.get("input");
    const std::string out = args.get("out");
    if (input.empty() || out.empty()) {
      std::fprintf(stderr, "psc_index: --input and --out are required\n%s",
                   args.usage().c_str());
      return 1;
    }
    const std::string kind_name = args.get("kind");
    if (kind_name != "protein" && kind_name != "dna") {
      std::fprintf(stderr, "unknown --kind '%s'\n", kind_name.c_str());
      return 1;
    }
    const bio::SequenceKind kind = kind_name == "protein"
                                       ? bio::SequenceKind::kProtein
                                       : bio::SequenceKind::kDna;
    if (args.get_flag("translate") && kind != bio::SequenceKind::kDna) {
      std::fprintf(stderr, "--translate requires --kind=dna\n");
      return 1;
    }

    util::Timer load_timer;
    bio::SequenceBank bank = bio::read_fasta_file(input, kind);
    if (args.get_flag("translate")) {
      // The pipeline indexes protein space; fold every DNA record's six
      // reading frames into one fragment bank.
      bio::SequenceBank fragments(bio::SequenceKind::kProtein);
      for (const bio::SequenceView record : bank) {
        const bio::SequenceBank frames =
            bio::frames_to_bank(bio::translate_six_frames(record));
        for (const bio::SequenceView fragment : frames) fragments.add(fragment);
      }
      bank = std::move(fragments);
    }
    std::fprintf(stderr, "# read %zu sequence(s), %zu residues (%.3f s)\n",
                 bank.size(), bank.total_residues(), load_timer.seconds());
    if (bank.kind() == bio::SequenceKind::kDna) {
      std::fprintf(stderr,
                   "# note: DNA banks are stored as-is; the pipeline "
                   "searches protein space (use --translate)\n");
    }

    core::SeedModelKind kind_enum = core::SeedModelKind::kSubsetW4;
    if (!core::parse_seed_model_option(args, kind_enum)) return 1;
    std::size_t threads = 0;
    if (!core::parse_threads_option(args, threads)) return 1;
    const index::SeedModel model = core::make_seed_model(kind_enum);

    const bool compress = args.get_flag("compress");

    if (args.get_flag("append")) {
      if (args.get_int("shard-max-bytes") != 0) {
        std::fprintf(stderr,
                     "--append writes exactly one tail shard; "
                     "--shard-max-bytes does not apply\n");
        return 1;
      }
      util::Timer append_timer;
      const store::ShardManifest manifest = store::append_sharded_store(
          out, bank, model, threads, args.get_flag("serial-index"), compress);
      std::fprintf(stderr,
                   "# appended shard %02zu to %s.pscman: revision %llu, "
                   "%zu shard(s), %llu sequence(s) total (%.3f s)\n",
                   manifest.shards.size() - 1, out.c_str(),
                   static_cast<unsigned long long>(manifest.revision),
                   manifest.shards.size(),
                   static_cast<unsigned long long>(manifest.total_sequences),
                   append_timer.seconds());
      return 0;
    }

    const std::int64_t shard_max = args.get_int("shard-max-bytes");
    if (shard_max < 0) {
      std::fprintf(stderr, "--shard-max-bytes must be >= 0\n");
      return 1;
    }
    if (shard_max > 0) {
      util::Timer shard_timer;
      const store::ShardManifest manifest = store::write_sharded_store(
          out, bank, model, static_cast<std::uint64_t>(shard_max), threads,
          args.get_flag("serial-index"), compress);
      std::fprintf(stderr,
                   "# wrote %s.pscman + %zu shard pair(s) under %s "
                   "(revision %llu, set checksum %016llx, %.3f s)\n",
                   out.c_str(), manifest.shards.size(), model.name().c_str(),
                   static_cast<unsigned long long>(manifest.revision),
                   static_cast<unsigned long long>(manifest.set_checksum),
                   shard_timer.seconds());
      return 0;
    }

    util::Timer build_timer;
    const index::IndexTable table =
        args.get_flag("serial-index")
            ? index::IndexTable(bank, model)
            : index::IndexTable::build_parallel(bank, model, threads);
    std::fprintf(stderr,
                 "# indexed under %s: %zu occurrence(s) over %zu keys "
                 "(%.3f s)\n",
                 model.name().c_str(), table.total_occurrences(),
                 table.key_space(), build_timer.seconds());

    util::Timer save_timer;
    const std::uint64_t bank_checksum =
        store::save_bank(out + ".pscbank", bank, compress);
    store::save_index(out + ".pscidx", table, model, bank_checksum, compress);
    std::fprintf(stderr, "# wrote %s.pscbank + %s.pscidx (%.3f s)\n",
                 out.c_str(), out.c_str(), save_timer.seconds());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psc_index: %s\n", e.what());
    return 1;
  }
}
