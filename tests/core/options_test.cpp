#include "core/options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace psc::core {
namespace {

TEST(MakeSeedModel, ProducesConfiguredModels) {
  EXPECT_EQ(make_seed_model(SeedModelKind::kSubsetW4).name(), "subset-w4");
  EXPECT_EQ(make_seed_model(SeedModelKind::kExactW4).width(), 4u);
  EXPECT_EQ(make_seed_model(SeedModelKind::kExactW3).width(), 3u);
}

TEST(BackendName, AllNamed) {
  EXPECT_EQ(backend_name(Step2Backend::kHostSequential), "host-sequential");
  EXPECT_EQ(backend_name(Step2Backend::kHostParallel), "host-parallel");
  EXPECT_EQ(backend_name(Step2Backend::kRasc), "rasc");
}

TEST(PipelineOptions, DefaultsValidate) {
  PipelineOptions options;
  EXPECT_NO_THROW(options.validate());
  EXPECT_EQ(options.shape.length(), 64u);
}

TEST(PipelineOptions, SeedWidthMismatchThrows) {
  PipelineOptions options;
  options.seed_model = SeedModelKind::kExactW3;  // width 3 vs shape width 4
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.shape.seed_width = 3;
  EXPECT_NO_THROW(options.validate());
}

TEST(PipelineOptions, BadEValueThrows) {
  PipelineOptions options;
  options.e_value_cutoff = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(PipelineOptions, RascBackendValidatesFpgas) {
  PipelineOptions options;
  options.backend = Step2Backend::kRasc;
  options.rasc.num_fpgas = 3;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.rasc.num_fpgas = 2;
  EXPECT_NO_THROW(options.validate());
}

TEST(PipelineOptions, ZeroSeedWidthThrows) {
  PipelineOptions options;
  options.shape.seed_width = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(PipelineOptions, SetThreadsMapsBothStages) {
  PipelineOptions options;
  options.set_threads(5);
  EXPECT_EQ(options.host_threads, 5u);
  EXPECT_EQ(options.step3_threads, 5u);
  EXPECT_NO_THROW(options.validate());
}

TEST(PipelineOptions, SetThreadsZeroMeansAllCores) {
  // Both stages share one convention: 0 is hardware concurrency, which
  // each stage resolves when it runs; 1 is sequential.
  PipelineOptions options;
  options.set_threads(0);
  EXPECT_EQ(options.host_threads, 0u);
  EXPECT_EQ(options.step3_threads, 0u);
  EXPECT_NO_THROW(options.validate());
}

}  // namespace
}  // namespace psc::core
