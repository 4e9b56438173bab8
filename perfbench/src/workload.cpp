#include "workload.hpp"

#include <string>

namespace psc::perfbench {

void account_layers(const Tracer& tracer, bool independent, Outcome& outcome) {
  const std::vector<Span> spans = tracer.spans();
  const LayerCheck check = check_layer_sum(spans, kLayerTolerance);
  JsonObject self;
  for (const auto& [name, seconds] : layer_self_times(spans)) {
    self.set(name, seconds);
  }
  outcome.notes.set("layer_self_seconds", self)
      .set("layer_root_seconds", check.root_seconds)
      .set("layer_attributed_seconds", check.attributed_seconds)
      .set("layer_tolerance", kLayerTolerance)
      .set("layer_check", independent ? "independent clocks"
                                      : "holds by construction")
      .set("trace_overhead_ratio", 0.0)
      .set("trace_overhead_basis",
           "0 by construction: spans are recorded after the phase from "
           "timestamps and result structs the untraced phase takes too")
      .set("spans", static_cast<std::uint64_t>(spans.size()));
  outcome.layers["trace.unattributed_ratio"] = check.unattributed_ratio;
  if (!check.ok) {
    outcome.invalid.push_back(
        "layers leave " + std::to_string(check.unattributed_ratio) +
        " of the end-to-end time unattributed (tolerance " +
        std::to_string(kLayerTolerance) + ")");
  }
}

}  // namespace psc::perfbench
