// Shared CLI option surface for the psc tools. Every binary that
// configures a pipeline (psc_search, psc_serve, the benches) and every
// one that picks a seed model or thread count (psc_index) registers the
// same flags with the same spellings through these helpers, so
// "--step2-kernel=simd" or "--matrix=PAM250.txt" means one thing
// everywhere. Defaults are derived from a caller-supplied
// PipelineOptions, so tools with different baselines (psc_search boots
// the rasc backend, psc_serve the parallel host backend) still share the
// parsing code.
#pragma once

#include <string>

#include "bio/substitution_matrix.hpp"
#include "core/options.hpp"
#include "util/args.hpp"

namespace psc::core {

/// Registers the pipeline-execution flags --backend, --step2-kernel,
/// --step3-kernel, --threads, --pes, --fpgas, --evalue and --composition,
/// with defaults read from `defaults`.
void add_pipeline_options(util::ArgParser& args,
                          const PipelineOptions& defaults);

/// Applies the flags registered by add_pipeline_options onto `options`.
/// Accepts "host" as an alias for "host-sequential". On a bad value,
/// prints a one-line error to stderr and returns false.
bool parse_pipeline_options(const util::ArgParser& args,
                            PipelineOptions& options);

/// Registers --seed-model with `default_kind`'s canonical name as the
/// default.
void add_seed_model_option(util::ArgParser& args, SeedModelKind default_kind);

/// Parses --seed-model; false + stderr message on an unknown name.
bool parse_seed_model_option(const util::ArgParser& args,
                             SeedModelKind& kind);

/// Registers --threads (defaulting to 0 = all cores) with tool-specific
/// help text.
void add_threads_option(util::ArgParser& args, const std::string& help);

/// Parses --threads; false + stderr message when negative.
bool parse_threads_option(const util::ArgParser& args, std::size_t& threads);

/// Registers --matrix ("blosum62" or a path to an NCBI-format matrix
/// file).
void add_matrix_option(util::ArgParser& args);

/// Parses --matrix: the builtin name loads the compiled-in table, any
/// other value is read as a matrix file. False + stderr message when the
/// file is missing or malformed.
bool parse_matrix_option(const util::ArgParser& args,
                         bio::SubstitutionMatrix& matrix);

}  // namespace psc::core
