#include "core/cli_options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace psc::core {
namespace {

/// Runs the shared pipeline flags through a fresh parser.
bool parse_with(const std::vector<std::string>& extra_args,
                PipelineOptions& options,
                PipelineOptions defaults = PipelineOptions{}) {
  util::ArgParser args("test", "cli_options test");
  add_pipeline_options(args, defaults);
  std::vector<const char*> argv = {"test"};
  for (const std::string& arg : extra_args) argv.push_back(arg.c_str());
  if (!args.parse(static_cast<int>(argv.size()), argv.data())) {
    ADD_FAILURE() << "ArgParser rejected the flag spelling";
    return false;
  }
  return parse_pipeline_options(args, options);
}

TEST(CliOptions, DefaultsComeFromTheCallersBaseline) {
  PipelineOptions defaults;
  defaults.backend = Step2Backend::kRasc;
  PipelineOptions options;
  ASSERT_TRUE(parse_with({}, options, defaults));
  EXPECT_EQ(options.backend, Step2Backend::kRasc);

  defaults.backend = Step2Backend::kHostParallel;
  ASSERT_TRUE(parse_with({}, options, defaults));
  EXPECT_EQ(options.backend, Step2Backend::kHostParallel);
}

TEST(CliOptions, ParsesEveryBackendSpelling) {
  PipelineOptions options;
  ASSERT_TRUE(parse_with({"--backend=rasc"}, options));
  EXPECT_EQ(options.backend, Step2Backend::kRasc);
  ASSERT_TRUE(parse_with({"--backend=host"}, options));
  EXPECT_EQ(options.backend, Step2Backend::kHostSequential);
  ASSERT_TRUE(parse_with({"--backend=host-sequential"}, options));
  EXPECT_EQ(options.backend, Step2Backend::kHostSequential);
  ASSERT_TRUE(parse_with({"--backend=host-parallel"}, options));
  EXPECT_EQ(options.backend, Step2Backend::kHostParallel);
  EXPECT_FALSE(parse_with({"--backend=gpu"}, options));
}

TEST(CliOptions, ParsesKernelAndThreads) {
  PipelineOptions options;
  ASSERT_TRUE(parse_with({"--step2-kernel=scalar", "--threads=3"}, options));
  EXPECT_EQ(options.step2_kernel, align::UngappedKernel::kScalar);
  EXPECT_EQ(options.host_threads, 3u);
  EXPECT_EQ(options.step3_threads, 3u);

  EXPECT_FALSE(parse_with({"--step2-kernel=fpga"}, options));
  EXPECT_FALSE(parse_with({"--threads=-1"}, options));
}

TEST(CliOptions, ParsesStep3Kernel) {
  PipelineOptions options;
  ASSERT_TRUE(parse_with({}, options));
  EXPECT_EQ(options.step3_kernel, align::GappedKernel::kAuto);
  ASSERT_TRUE(parse_with({"--step3-kernel=scalar"}, options));
  EXPECT_EQ(options.step3_kernel, align::GappedKernel::kScalar);
  ASSERT_TRUE(parse_with({"--step3-kernel=portable"}, options));
  EXPECT_EQ(options.step3_kernel, align::GappedKernel::kPortable);
  ASSERT_TRUE(parse_with({"--step3-kernel=avx2"}, options));
  EXPECT_EQ(options.step3_kernel, align::GappedKernel::kAvx2);
  EXPECT_FALSE(parse_with({"--step3-kernel=fpga"}, options));
}

TEST(CliOptions, ParsesAcceleratorShapeAndStats) {
  PipelineOptions options;
  ASSERT_TRUE(parse_with({"--backend=rasc", "--pes=64", "--fpgas=2",
                          "--evalue=0.5", "--composition"},
                         options));
  EXPECT_EQ(options.rasc.psc.num_pes, 64u);
  EXPECT_EQ(options.rasc.num_fpgas, 2u);
  EXPECT_DOUBLE_EQ(options.e_value_cutoff, 0.5);
  EXPECT_TRUE(options.composition_based_stats);
  EXPECT_FALSE(parse_with({"--pes=0"}, options));
  EXPECT_FALSE(parse_with({"--fpgas=-2"}, options));
}

TEST(CliOptions, SeedModelOptionRoundTrips) {
  for (const SeedModelKind kind :
       {SeedModelKind::kSubsetW4, SeedModelKind::kSubsetW4Coarse,
        SeedModelKind::kExactW4, SeedModelKind::kExactW3}) {
    util::ArgParser args("test", "seed model");
    add_seed_model_option(args, kind);
    const char* argv[] = {"test"};
    ASSERT_TRUE(args.parse(1, argv));
    SeedModelKind parsed = SeedModelKind::kExactW3;
    ASSERT_TRUE(parse_seed_model_option(args, parsed));
    EXPECT_EQ(parsed, kind);
  }

  util::ArgParser args("test", "seed model");
  add_seed_model_option(args, SeedModelKind::kSubsetW4);
  const char* argv[] = {"test", "--seed-model=subset-w9"};
  ASSERT_TRUE(args.parse(2, argv));
  SeedModelKind parsed = SeedModelKind::kSubsetW4;
  EXPECT_FALSE(parse_seed_model_option(args, parsed));
}

TEST(CliOptions, MatrixOptionLoadsBuiltinAndRejectsMissingFile) {
  {
    util::ArgParser args("test", "matrix");
    add_matrix_option(args);
    const char* argv[] = {"test"};
    ASSERT_TRUE(args.parse(1, argv));
    bio::SubstitutionMatrix matrix;
    ASSERT_TRUE(parse_matrix_option(args, matrix));
    EXPECT_EQ(matrix.cells(), bio::SubstitutionMatrix::blosum62().cells());
  }
  {
    util::ArgParser args("test", "matrix");
    add_matrix_option(args);
    const char* argv[] = {"test", "--matrix=/nonexistent/m.txt"};
    ASSERT_TRUE(args.parse(2, argv));
    bio::SubstitutionMatrix matrix;
    EXPECT_FALSE(parse_matrix_option(args, matrix));
  }
}

}  // namespace
}  // namespace psc::core
