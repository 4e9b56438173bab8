#include "core/options.hpp"

#include <stdexcept>

namespace psc::core {

void PipelineOptions::set_threads(std::size_t threads) {
  host_threads = threads;
  step3_threads = threads;
}

void PipelineOptions::validate() const {
  if (shape.seed_width == 0) {
    throw std::invalid_argument("PipelineOptions: zero seed width");
  }
  // Windows are read in place from the banks' padded arenas.
  if (shape.flank > bio::SequenceBank::kPadding) {
    throw std::invalid_argument(
        "PipelineOptions: window flank exceeds the bank padding (64)");
  }
  const index::SeedModel model = make_seed_model(seed_model);
  if (model.width() != shape.seed_width) {
    throw std::invalid_argument(
        "PipelineOptions: seed model width does not match window shape");
  }
  if (e_value_cutoff <= 0.0) {
    throw std::invalid_argument("PipelineOptions: e_value_cutoff <= 0");
  }
  if (search_space_residues < 0.0) {
    throw std::invalid_argument("PipelineOptions: search_space_residues < 0");
  }
  if (backend == Step2Backend::kRasc) {
    rasc.psc.validate();
    if (rasc.num_fpgas == 0 || rasc.num_fpgas > 2) {
      throw std::invalid_argument("PipelineOptions: num_fpgas must be 1 or 2");
    }
  }
}

index::SeedModel make_seed_model(SeedModelKind kind) {
  switch (kind) {
    case SeedModelKind::kSubsetW4: return index::SeedModel::subset_w4();
    case SeedModelKind::kSubsetW4Coarse:
      return index::SeedModel::subset_w4_coarse();
    case SeedModelKind::kExactW4: return index::SeedModel::contiguous(4);
    case SeedModelKind::kExactW3: return index::SeedModel::contiguous(3);
  }
  throw std::invalid_argument("make_seed_model: unknown kind");
}

std::string seed_model_kind_name(SeedModelKind kind) {
  switch (kind) {
    case SeedModelKind::kSubsetW4: return "subset-w4";
    case SeedModelKind::kSubsetW4Coarse: return "subset-w4-coarse";
    case SeedModelKind::kExactW4: return "exact-w4";
    case SeedModelKind::kExactW3: return "exact-w3";
  }
  return "unknown";
}

SeedModelKind parse_seed_model_kind(const std::string& name) {
  if (name == "subset-w4") return SeedModelKind::kSubsetW4;
  if (name == "subset-w4-coarse") return SeedModelKind::kSubsetW4Coarse;
  if (name == "exact-w4") return SeedModelKind::kExactW4;
  if (name == "exact-w3") return SeedModelKind::kExactW3;
  throw std::invalid_argument(
      "parse_seed_model_kind: expected subset-w4|subset-w4-coarse|exact-w4|"
      "exact-w3, got '" +
      name + "'");
}

std::string backend_name(Step2Backend backend) {
  switch (backend) {
    case Step2Backend::kHostSequential: return "host-sequential";
    case Step2Backend::kHostParallel: return "host-parallel";
    case Step2Backend::kRasc: return "rasc";
  }
  return "unknown";
}

std::string step2_kernel_name(align::UngappedKernel kernel) {
  return align::ungapped_kernel_name(kernel);
}

align::UngappedKernel parse_step2_kernel(const std::string& name) {
  if (const auto kernel = align::parse_ungapped_kernel(name)) return *kernel;
  throw std::invalid_argument(
      "parse_step2_kernel: expected auto|scalar|blocked|simd, got '" + name +
      "'");
}

std::string step3_kernel_name(align::GappedKernel kernel) {
  return align::gapped_kernel_name(kernel);
}

align::GappedKernel parse_step3_kernel(const std::string& name) {
  if (const auto kernel = align::parse_gapped_kernel(name)) return *kernel;
  throw std::invalid_argument(
      "parse_step3_kernel: expected auto|scalar|portable|avx2, got '" + name +
      "'");
}

}  // namespace psc::core
