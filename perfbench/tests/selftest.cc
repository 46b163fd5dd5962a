// Unit tests of the harness's statistics and metric-line code: exact
// percentiles, ratios and shares, metric names and units, and the
// number format of the result line. Exits 1 on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

using perfbench::FormatNumber;
using perfbench::GeoMean;
using perfbench::IsValidMetricName;
using perfbench::IsValidUnit;
using perfbench::MetricSet;
using perfbench::Percentile;
using perfbench::Ratio;
using perfbench::Summarize;
using perfbench::UnattributedShare;

void TestPercentile() {
  CHECK(Percentile({}, 0.5) == 0.0);
  CHECK(Percentile({7.0}, 0.0) == 7.0);
  CHECK(Percentile({7.0}, 0.99) == 7.0);
  // Nearest rank: ceil(q * n), on unsorted input.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  CHECK(Percentile(ten, 0.5) == 5.0);
  CHECK(Percentile(ten, 0.9) == 9.0);
  CHECK(Percentile(ten, 0.91) == 10.0);
  CHECK(Percentile(ten, 1.0) == 10.0);
  CHECK(Percentile(ten, 0.0) == 1.0);
  // Every percentile is a measured sample, never an interpolation or a
  // histogram bucket bound.
  const std::vector<double> odd = {0.1234, 0.5, 0.7777};
  CHECK(Percentile(odd, 0.5) == 0.5);
  CHECK(Percentile({1.0, 2.0}, 0.5) == 1.0);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i * 0.001);
  CHECK(Percentile(thousand, 0.99) == thousand[989]);
  perfbench::Summary s = Summarize(ten);
  CHECK(s.n == 10 && s.p50 == 5.0 && s.p90 == 9.0 && s.p99 == 10.0);
  CHECK(std::fabs(s.mean - 5.5) < 1e-12);
  CHECK(Summarize({}).n == 0);
}

void TestRatios() {
  CHECK(Ratio(3, 4) == 0.75);
  CHECK(Ratio(3, 0) == 0.0);
  CHECK(UnattributedShare(90, 100) > 0.0999 &&
        UnattributedShare(90, 100) < 0.1001);
  CHECK(UnattributedShare(0, 100) == 1.0);
  CHECK(UnattributedShare(110, 100) < 0.0);  // over-attribution shows
  CHECK(UnattributedShare(5, 0) == 0.0);
  CHECK(std::fabs(GeoMean({1, 100}) - 10.0) < 1e-9);
  CHECK(std::fabs(GeoMean({2, 2, 2}) - 2.0) < 1e-12);
  CHECK(GeoMean({}) == 0.0);
  CHECK(GeoMean({1, 0}) == 0.0);
  CHECK(GeoMean({1, -1}) == 0.0);
}

void TestNames() {
  CHECK(IsValidMetricName("setup_s"));
  CHECK(IsValidMetricName("store.wal.fsync_share"));
  CHECK(IsValidMetricName("p99-ms"));
  CHECK(IsValidMetricName("9lives"));
  CHECK(!IsValidMetricName(""));
  CHECK(!IsValidMetricName("_lead"));
  CHECK(!IsValidMetricName(".lead"));
  CHECK(!IsValidMetricName("has space"));
  CHECK(!IsValidMetricName("slash/name"));
  CHECK(IsValidMetricName(std::string(64, 'a')));
  CHECK(!IsValidMetricName(std::string(65, 'a')));
  CHECK(IsValidUnit("ms"));
  CHECK(IsValidUnit("1/s"));
  CHECK(IsValidUnit("%"));
  CHECK(IsValidUnit("frac"));
  CHECK(!IsValidUnit(""));
  CHECK(!IsValidUnit("m s"));
  CHECK(!IsValidUnit(std::string(17, 'b')));
}

void TestFormat() {
  CHECK(FormatNumber(0.0) == "0");
  CHECK(FormatNumber(1.5) == "1.5");
  CHECK(FormatNumber(12) == "12");
  // All digits kept: the text reads back as exactly the same double.
  for (double v : {0.1, 1.0 / 3.0, 123.456789012345, 2.5e-7, 9.87e12}) {
    CHECK(std::strtod(FormatNumber(v).c_str(), nullptr) == v);
  }
}

void TestMetricSet() {
  MetricSet set;
  CHECK(set.Add("latency_ms", 1.25, "ms"));
  CHECK(set.Add("setup_s", 0.5, "s"));
  CHECK(!set.Add("latency_ms", 2.0, "ms"));  // duplicate
  CHECK(!set.Add("bad name", 1.0, "ms"));
  CHECK(!set.Add("nan_ms", std::nan(""), "ms"));
  CHECK(!set.Add("inf_ms", std::numeric_limits<double>::infinity(), "ms"));
  CHECK(!set.Add("unit_bad", 1.0, "m s"));
  CHECK(set.metrics().size() == 2);
  CHECK(set.ToJson() ==
        "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
        "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}");
  CHECK(MetricSet().ToJson() == "{}");
}

}  // namespace

int main() {
  TestPercentile();
  TestRatios();
  TestNames();
  TestFormat();
  TestMetricSet();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
