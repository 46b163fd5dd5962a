#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Exact sample statistics and the metric-line format of the benchmark.
// Percentiles are computed from the raw per-item samples (nearest-rank,
// so every reported percentile is a value that was actually measured),
// never from the program's fixed-boundary Metrics histograms.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the sample of rank ceil(q * n) in sorted
// order (rank clamped to [1, n]). q in [0, 1]. Returns 0 for no samples.
double Percentile(std::vector<double> samples, double q);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

// Geometric mean of positive values; 0 when `values` is empty or any
// value is not positive (a geometric mean over a zero is meaningless).
double GeoMean(const std::vector<double>& values);

// num / den, or 0 when den is 0 — for shares and per-unit counts whose
// denominator can legitimately be empty on some workloads.
double Ratio(double num, double den);

// 1 - attributed / wall: the share of an operation's wall time that no
// measured constituent accounts for. Negative when the re-issued
// constituents took longer than the operation itself. 0 when wall is 0.
double UnattributedShare(double attributed, double wall);

// Metric names: a letter or digit first, then at most 63 more of
// [A-Za-z0-9_.-]. Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool IsValidMetricName(std::string_view name);
bool IsValidUnit(std::string_view unit);

// Shortest decimal text that reads back as exactly `value` (all digits
// kept; no rounding to a display precision).
std::string FormatNumber(double value);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// An ordered, validated set of metrics: names unique and well-formed,
// units well-formed, values finite. Add() returns false (and records
// the reason) instead of accepting a bad entry.
class MetricSet {
 public:
  bool Add(std::string_view name, double value, std::string_view unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::string& error() const { return error_; }
  // {"name": {"value": v, "unit": "u"}, ...} in insertion order.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
