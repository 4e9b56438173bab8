#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "metrics.hpp"

namespace psc::perfbench {

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (parent != kNoParent) {
    if (parent < 0 || static_cast<std::size_t>(parent) >= spans_.size()) {
      throw std::out_of_range("Tracer::record: unknown parent span");
    }
    const Span& up = spans_[static_cast<std::size_t>(parent)];
    start = std::clamp(start, up.start, up.end);
    end = std::clamp(end, up.start, up.end);
  }
  end = std::max(start, end);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    out << "  {\"name\": " << json_quote(span.name)
        << ", \"start\": " << json_number(span.start)
        << ", \"end\": " << json_number(span.end)
        << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (parent >= spans.size()) {
      throw std::out_of_range("self_times: span names an unknown parent");
    }
    const Span& up = spans[parent];
    const double start = std::clamp(span.start, up.start, up.end);
    const double end = std::clamp(span.end, up.start, up.end);
    if (end > start) children[parent].emplace_back(start, end);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layers[spans[i].name] += self[i];
  }
  return layers;
}

LayerCheck check_layer_sum(const std::vector<Span>& spans, double tolerance) {
  const std::vector<double> self = self_times(spans);
  LayerCheck check;
  double unattributed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoParent) {
      check.root_seconds += spans[i].end - spans[i].start;
      unattributed += self[i];
    } else {
      check.attributed_seconds += self[i];
    }
  }
  check.unattributed_ratio =
      check.root_seconds > 0.0 ? unattributed / check.root_seconds : 1.0;
  check.ok = check.root_seconds > 0.0 &&
             check.unattributed_ratio <= tolerance;
  return check;
}

}  // namespace psc::perfbench
