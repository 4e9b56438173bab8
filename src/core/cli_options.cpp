#include "core/cli_options.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace psc::core {

namespace {

std::string format_double(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

void add_pipeline_options(util::ArgParser& args,
                          const PipelineOptions& defaults) {
  args.add_option("backend", backend_name(defaults.backend),
                  "rasc | host | host-sequential | host-parallel");
  args.add_option("step2-kernel",
                  align::ungapped_kernel_name(defaults.step2_kernel),
                  "host ungapped kernel: auto | scalar | blocked | simd");
  args.add_option("step3-kernel",
                  align::gapped_kernel_name(defaults.step3_kernel),
                  "gapped-extension kernel: auto | scalar | portable | avx2");
  add_threads_option(args,
                     "worker threads for BOTH step 2 and step 3 on the host "
                     "backends (0 = all cores)");
  args.add_option("pes", std::to_string(defaults.rasc.psc.num_pes),
                  "PSC processing elements (rasc backend)");
  args.add_option("fpgas", std::to_string(defaults.rasc.num_fpgas),
                  "simulated FPGAs (1 or 2)");
  args.add_option("evalue", format_double(defaults.e_value_cutoff),
                  "E-value cutoff");
  args.add_flag("composition", "composition-based E-value statistics");
}

bool parse_pipeline_options(const util::ArgParser& args,
                            PipelineOptions& options) {
  const std::string backend = args.get("backend");
  if (backend == "rasc") {
    options.backend = Step2Backend::kRasc;
  } else if (backend == "host" || backend == "host-sequential") {
    options.backend = Step2Backend::kHostSequential;
  } else if (backend == "host-parallel") {
    options.backend = Step2Backend::kHostParallel;
  } else {
    std::fprintf(stderr, "unknown backend '%s'\n", backend.c_str());
    return false;
  }
  const auto step2_kernel =
      align::parse_ungapped_kernel(args.get("step2-kernel"));
  if (!step2_kernel) {
    std::fprintf(stderr, "unknown step2 kernel '%s'\n",
                 args.get("step2-kernel").c_str());
    return false;
  }
  options.step2_kernel = *step2_kernel;
  const auto step3_kernel =
      align::parse_gapped_kernel(args.get("step3-kernel"));
  if (!step3_kernel) {
    std::fprintf(stderr, "unknown step3 kernel '%s'\n",
                 args.get("step3-kernel").c_str());
    return false;
  }
  options.step3_kernel = *step3_kernel;
  std::size_t threads = 0;
  if (!parse_threads_option(args, threads)) return false;
  options.set_threads(threads);
  const std::int64_t pes = args.get_int("pes");
  const std::int64_t fpgas = args.get_int("fpgas");
  if (pes <= 0 || fpgas <= 0) {
    std::fprintf(stderr, "--pes and --fpgas must be positive\n");
    return false;
  }
  options.rasc.psc.num_pes = static_cast<std::size_t>(pes);
  options.rasc.num_fpgas = static_cast<std::size_t>(fpgas);
  options.e_value_cutoff = args.get_double("evalue");
  options.composition_based_stats = args.get_flag("composition");
  return true;
}

void add_seed_model_option(util::ArgParser& args,
                           SeedModelKind default_kind) {
  args.add_option("seed-model", seed_model_kind_name(default_kind),
                  "subset-w4 | subset-w4-coarse | exact-w4 | exact-w3");
}

bool parse_seed_model_option(const util::ArgParser& args,
                             SeedModelKind& kind) {
  try {
    kind = parse_seed_model_kind(args.get("seed-model"));
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "unknown seed model '%s'\n",
                 args.get("seed-model").c_str());
    return false;
  }
  return true;
}

void add_threads_option(util::ArgParser& args, const std::string& help) {
  args.add_option("threads", "0", help);
}

bool parse_threads_option(const util::ArgParser& args, std::size_t& threads) {
  const std::int64_t value = args.get_int("threads");
  if (value < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return false;
  }
  threads = static_cast<std::size_t>(value);
  return true;
}

void add_matrix_option(util::ArgParser& args) {
  args.add_option("matrix", "blosum62",
                  "substitution matrix: blosum62 (builtin) or a path to an "
                  "NCBI-format matrix file");
}

bool parse_matrix_option(const util::ArgParser& args,
                         bio::SubstitutionMatrix& matrix) {
  const std::string value = args.get("matrix");
  if (value == "blosum62") {
    matrix = bio::SubstitutionMatrix::blosum62();
    return true;
  }
  std::ifstream in(value);
  if (!in) {
    std::fprintf(stderr, "cannot open matrix file '%s'\n", value.c_str());
    return false;
  }
  try {
    matrix = bio::SubstitutionMatrix::from_stream(in, value);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad matrix file '%s': %s\n", value.c_str(),
                 e.what());
    return false;
  }
  return true;
}

}  // namespace psc::core
