#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "util/stats.hpp"

namespace psc::perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps representation error in p * n (0.99 * 1000 is
  // 990.0000000000001) from bumping an exact rank to the next one.
  const double raw = std::ceil(p * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, raw));
  return std::min(rank, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double tail_percentile(const std::vector<double>& samples, double p) {
  return tail_supported(samples.size(), p) ? percentile(samples, p) : 0.0;
}

double median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : util::percentile(samples, 0.5);
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::set(const std::string& key, double value) {
  return set_raw(key, json_number(value));
}

JsonObject& JsonObject::set(const std::string& key, std::uint64_t value) {
  return set_raw(key, std::to_string(value));
}

JsonObject& JsonObject::set(const std::string& key, bool value) {
  return set_raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  return set_raw(key, json_quote(value));
}

JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set_raw(key, json_quote(value));
}

JsonObject& JsonObject::set(const std::string& key, const JsonObject& value) {
  return set_raw(key, value.str());
}

JsonObject& JsonObject::set_raw(const std::string& key, std::string json) {
  for (auto& field : fields_) {
    if (field.first == key) {
      field.second = std::move(json);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace psc::perfbench
