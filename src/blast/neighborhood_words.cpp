#include "blast/neighborhood_words.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psc::blast {

void enumerate_neighborhood(std::span<const std::uint8_t> word,
                            const bio::SubstitutionMatrix& matrix,
                            int threshold,
                            std::vector<std::uint32_t>& keys_out) {
  keys_out.clear();
  const std::size_t w = word.size();
  if (w == 0) return;
  for (std::uint8_t r : word) {
    if (r >= bio::kNumAminoAcids) return;  // masked word: no neighbourhood
  }

  // The DFS below reads score(word[depth], choice) for every candidate
  // residue. The word's residues are standard (checked above) and so are
  // the choices, so each position reads one contiguous matrix row with no
  // clamping -- the same row-per-residue addressing as the step-2 kernels'
  // align::SubstitutionRows, without narrowing scores to int8, so any
  // matrix works.
  const auto* cells = matrix.cells().data();
  const auto score_at = [&](std::size_t depth, std::uint8_t c) -> int {
    return cells[word[depth] * bio::kProteinAlphabetSize + c];
  };

  // suffix_max[i] = best achievable score for positions i..w-1.
  std::vector<int> suffix_max(w + 1, 0);
  for (std::size_t i = w; i-- > 0;) {
    int best = score_at(i, 0);
    for (std::uint8_t r = 1; r < bio::kNumAminoAcids; ++r) {
      best = std::max(best, score_at(i, r));
    }
    suffix_max[i] = suffix_max[i + 1] + best;
  }

  // Iterative DFS over residue choices with pruning.
  std::vector<std::uint8_t> choice(w, 0);
  std::vector<int> partial(w + 1, 0);
  std::size_t depth = 0;
  choice[0] = 0;
  while (true) {
    if (choice[depth] >= bio::kNumAminoAcids) {
      if (depth == 0) break;
      --depth;
      ++choice[depth];
      continue;
    }
    const int score = partial[depth] + score_at(depth, choice[depth]);
    if (score + suffix_max[depth + 1] < threshold) {
      ++choice[depth];
      continue;
    }
    if (depth + 1 == w) {
      if (score >= threshold) {
        std::uint32_t key = 0;
        for (std::size_t i = 0; i < w; ++i) {
          key = key * static_cast<std::uint32_t>(bio::kNumAminoAcids) +
                choice[i];
        }
        keys_out.push_back(key);
      }
      ++choice[depth];
      continue;
    }
    partial[depth + 1] = score;
    ++depth;
    choice[depth] = 0;
  }
}

WordLookup::WordLookup(const bio::SequenceBank& queries, std::size_t word_size,
                       int threshold, const bio::SubstitutionMatrix& matrix)
    : word_size_(word_size) {
  if (word_size == 0 || word_size > 5) {
    throw std::invalid_argument("WordLookup: word_size must be 1..5");
  }
  const std::size_t key_space = static_cast<std::size_t>(
      std::llround(std::pow(double{bio::kNumAminoAcids}, double(word_size))));

  // First pass: enumerate neighbourhoods and count per-key entries.
  std::vector<std::uint32_t> scratch;
  std::vector<std::pair<std::uint32_t, QueryWordHit>> pairs;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const bio::SequenceView query = queries[q];
    if (query.size() < word_size) continue;
    positions_ += query.size() - word_size + 1;
    for (std::size_t pos = 0; pos + word_size <= query.size(); ++pos) {
      enumerate_neighborhood({query.data() + pos, word_size}, matrix,
                             threshold, scratch);
      for (const std::uint32_t key : scratch) {
        pairs.emplace_back(key,
                           QueryWordHit{static_cast<std::uint32_t>(q),
                                        static_cast<std::uint32_t>(pos)});
      }
    }
  }

  starts_.assign(key_space + 1, 0);
  for (const auto& [key, hit] : pairs) ++starts_[key + 1];
  for (std::size_t k = 0; k < key_space; ++k) starts_[k + 1] += starts_[k];
  entries_.resize(pairs.size());
  std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
  for (const auto& [key, hit] : pairs) entries_[cursor[key]++] = hit;
}

double WordLookup::mean_neighborhood() const {
  return positions_ == 0
             ? 0.0
             : static_cast<double>(entries_.size()) /
                   static_cast<double>(positions_);
}

}  // namespace psc::blast
