// psc_perfbench: runs one workload of the layered benchmark and writes
// its result file. perfbench/run.py builds this binary, runs it and
// prints the contract's one-line summary; run it directly only to debug.
//
//   psc_perfbench --workload batch_host --seed 1 --seconds 12 --trace 0
//                 --work-dir DIR --result FILE [--spans FILE]
//                 [--git-rev REV] [--source-digest HEX]
//
// Exit status: 0 when every reply matched its reference and the run is
// valid, 3 otherwise (the result file says why), 2 on a usage or set-up
// error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "align/cpu_features.hpp"
#include "bio/sequence.hpp"
#include "core/pipeline.hpp"
#include "metrics.hpp"
#include "workload.hpp"

namespace {

using namespace psc;
using namespace psc::perfbench;

/// Every per-layer metric, in the order BENCHMARK.json lists them; a
/// workload that does not exercise a layer reports 0 for it.
const char* const kPerLayerMetrics[] = {
    "core.step1_s", "core.step2_s", "core.step2_pairs", "core.step2_hit_ratio",
    "align.step2_cells", "align.step2_cells_per_s", "core.step3_s",
    "core.step3_extensions", "core.step3_eager_ratio", "core.matches",
    "index.query_build_s", "index.query_occurrences", "accel_modeled_s",
    "rasc.modeled_compute_s", "rasc.modeled_transfer_s",
    "rasc.modeled_overhead_s", "rasc.pe_utilization", "rasc.stall_ratio",
    "rasc.bank_uploads", "rasc.uploads_skipped", "rasc.sim_wall_s",
    "store.bytes", "store.load_s", "store.append_s", "store.shards_reused",
    "ingest_visible_ms", "service.latency_p50_ms", "service.latency_p99_ms",
    "service.queries_per_batch", "service.cache_hit_ratio", "service.evictions",
    "net.wait_p50_ms", "net.wait_p99_ms", "net.reply_bytes", "net.codec_s",
    "cluster.legs_per_shard", "cluster.leg_p50_ms", "cluster.leg_max_ms",
    "cluster.hedges", "cluster.retries", "cluster.coord_p50_ms",
    "loadgen.late_p99_ms", "loadgen.sent", "loadgen.rejected",
    "latency_p99_ms", "failed_ratio", "trace.unattributed_ratio",
};

std::string metrics_json(const std::map<std::string, double>& metrics) {
  JsonObject out;
  for (const auto& [name, value] : metrics) out.set(name, value);
  return out.str();
}

/// The step-2 and step-3 engines the default kernels resolve to on this
/// machine, from one tiny run whose only pair is a self-match.
std::pair<std::string, std::string> resolved_engines() {
  const bio::Sequence protein = bio::Sequence::protein_from_letters(
      "p", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQ");
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(protein);
  core::PipelineOptions options;
  options.backend = core::Step2Backend::kHostParallel;
  options.set_threads(1);
  const core::PipelineResult result = core::run_pipeline(bank, bank, options);
  return {result.step2_engine, result.step3_engine};
}

int usage(const char* message) {
  std::fprintf(stderr, "psc_perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("arguments come in --key value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir", "result"}) {
    if (args.count(required) == 0) return usage("missing a required argument");
  }

  Context context;
  context.workload = args["workload"];
  context.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  context.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  context.trace = args["trace"] == "1";
  context.work_dir = args["work-dir"];
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  context.threads = online > 0 ? static_cast<std::size_t>(online) : 1;
  if (context.seconds <= 0.0) return usage("--seconds must be positive");
  Tracer tracer;
  if (context.trace) context.tracer = &tracer;

  const std::map<std::string, std::function<Outcome(const Context&)>> workloads = {
      {"batch_host", run_batch_host},
      {"batch_rasc", run_batch_rasc},
      {"serve_single", run_serve_single},
      {"serve_cluster", run_serve_cluster},
  };
  const auto workload = workloads.find(context.workload);
  if (workload == workloads.end()) return usage("unknown --workload");

  Outcome outcome;
  try {
    outcome = workload->second(context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psc_perfbench: %s failed: %s\n", context.workload.c_str(),
                 e.what());
    return 2;
  }

  std::map<std::string, double> layers;
  for (const char* name : kPerLayerMetrics) layers[name] = 0.0;
  for (const auto& [name, value] : outcome.layers) {
    if (layers.count(name) == 0) {
      std::fprintf(stderr, "psc_perfbench: unlisted layer metric %s\n", name.c_str());
      return 2;
    }
    layers[name] = value;
  }
  layers["failed_ratio"] = outcome.attempted > 0
                               ? static_cast<double>(outcome.failed) /
                                     static_cast<double>(outcome.attempted)
                               : 1.0;

  const auto [step2_engine, step3_engine] = resolved_engines();
  JsonObject envelope;
  envelope.set("git_rev", args.count("git-rev") ? args["git-rev"] : "unknown")
      .set("source_digest", args.count("source-digest") ? args["source-digest"] : "")
      .set("nproc", static_cast<std::uint64_t>(context.threads))
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("simd_tier", align::simd_tier_name(align::best_simd_tier()))
      .set("step2_engine", step2_engine)
      .set("step3_engine", step3_engine)
      .set("workload", context.workload)
      .set("seed", context.seed)
      .set("seconds", context.seconds)
      .set("tracing", context.trace);

  JsonObject errors;
  for (const auto& [error, count] : outcome.errors) errors.set(error, count);
  std::string invalid = "[";
  for (std::size_t i = 0; i < outcome.invalid.size(); ++i) {
    invalid += (i > 0 ? ", " : "") + json_quote(outcome.invalid[i]);
    std::fprintf(stderr, "psc_perfbench: invalid run: %s\n", outcome.invalid[i].c_str());
  }
  invalid += "]";
  const bool correct = outcome.mismatches == 0 && outcome.failed == 0 &&
                       outcome.invalid.empty() && outcome.attempted > 0;

  JsonObject result;
  result.set("correct", correct)
      .set("attempted", outcome.attempted)
      .set("failed", outcome.failed)
      .set("mismatches", outcome.mismatches)
      .set("errors", errors)
      .set_raw("invalid", invalid)
      .set("envelope", envelope)
      .set("inputs", outcome.inputs)
      .set("notes", outcome.notes)
      .set_raw("end_to_end", metrics_json(outcome.end_to_end))
      .set_raw("per_layer", context.trace ? metrics_json(layers) : "{}");
  std::ofstream out(args["result"]);
  out << result.str() << "\n";
  out.close();
  if (!out) return usage("cannot write the result file");
  if (context.trace && args.count("spans")) tracer.write(args["spans"]);
  return correct ? 0 : 3;
}
