#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double rank = std::ceil(q * n);
  rank = std::clamp(rank, 1.0, n);
  return samples[static_cast<size_t>(rank) - 1];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = Percentile(samples, 0.50);
  s.p90 = Percentile(samples, 0.90);
  s.p99 = Percentile(samples, 0.99);
  double total = 0.0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(s.n);
  return s;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double UnattributedShare(double attributed, double wall) {
  if (!(wall > 0.0)) return 0.0;
  return 1.0 - attributed / wall;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

std::string FormatNumber(double value) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

bool MetricSet::Add(std::string_view name, double value,
                    std::string_view unit) {
  std::string label(name);
  if (!IsValidMetricName(name)) {
    error_ = "invalid metric name \"" + label + "\"";
    return false;
  }
  if (!IsValidUnit(unit)) {
    error_ = "invalid unit \"" + std::string(unit) + "\" for " + label;
    return false;
  }
  if (!std::isfinite(value)) {
    error_ = "non-finite value for " + label;
    return false;
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      error_ = "duplicate metric " + label;
      return false;
    }
  }
  metrics_.push_back(Metric{label, value, std::string(unit)});
  return true;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
