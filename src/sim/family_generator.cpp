#include "sim/family_generator.hpp"

#include <stdexcept>
#include <string>

#include "sim/protein_generator.hpp"

namespace psc::sim {

FamilyBenchmark generate_families(const FamilyConfig& config) {
  if (config.members_per_family == 0) {
    throw std::invalid_argument("generate_families: empty families");
  }
  util::Xoshiro256 rng(config.seed);
  FamilyBenchmark out;
  out.members = bio::SequenceBank(bio::SequenceKind::kProtein);
  out.family_count = config.families;

  for (std::size_t f = 0; f < config.families; ++f) {
    const bio::Sequence ancestor = generate_protein(
        "fam" + std::to_string(f) + "-anc", config.ancestor_length, rng);
    for (std::size_t m = 0; m < config.members_per_family; ++m) {
      bio::Sequence member = mutate_protein(ancestor, config.divergence, rng);
      member = bio::Sequence(
          "fam" + std::to_string(f) + "-m" + std::to_string(m),
          bio::SequenceKind::kProtein,
          std::vector<std::uint8_t>(member.residues()));
      out.members.add(std::move(member));
      out.family_of.push_back(f);
    }
  }
  return out;
}

QueryTargetSplit split_queries(const FamilyBenchmark& benchmark,
                               std::size_t queries_per_family) {
  QueryTargetSplit out;
  out.queries = bio::SequenceBank(bio::SequenceKind::kProtein);
  out.targets = bio::SequenceBank(bio::SequenceKind::kProtein);

  std::vector<std::size_t> seen_in_family(benchmark.family_count, 0);
  for (std::size_t i = 0; i < benchmark.members.size(); ++i) {
    const std::size_t family = benchmark.family_of[i];
    const bio::SequenceView copy = benchmark.members[i];
    if (seen_in_family[family] < queries_per_family) {
      out.queries.add(copy);
      out.query_family.push_back(family);
    } else {
      out.targets.add(copy);
      out.target_family.push_back(family);
    }
    ++seen_in_family[family];
  }
  return out;
}

}  // namespace psc::sim
