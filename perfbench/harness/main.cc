// End-to-end benchmark of xupdate: one workload per invocation.
//
//   perfbench --workload reason|history|serve --seed N --seconds S
//             --trace 0|1 --work-root DIR [--out-dir DIR]
//   perfbench --list-metrics
//
// Prints a host/build fingerprint, a human-readable report (every
// operation's exact percentiles with their sample counts, failed and
// attempted counts) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (and writes the traced run's spans to --out-dir). Exits 1 when
// any operation failed or any oracle disagreed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "stats.h"

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
#define PERFBENCH_UNOPTIMIZED 1
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported with --trace 0 on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"cpu_ms_per_item", "ms"},
};

// The per-layer metrics, reported with --trace 1 on every workload.
// `_ms` layers run on every workload (median per call); `_share` layers
// run on some workloads only and report their share of all decomposed
// operation wall time (0 where the layer does not run).
constexpr MetricSpec kPerLayer[] = {
    {"xml.parse_ms", "ms"},
    {"xml.serialize_ms", "ms"},
    {"pul.decode_ms", "ms"},
    {"pul.encode_ms", "ms"},
    {"pul.check_ms", "ms"},
    {"pul.apply_ms", "ms"},
    {"core.reduce_ms", "ms"},
    {"label.build_share", "frac"},
    {"core.integrate_share", "frac"},
    {"core.reconcile_share", "frac"},
    {"core.aggregate_share", "frac"},
    {"exec.stream_apply_share", "frac"},
    {"store.wal.append_share", "frac"},
    {"store.wal.fsync_share", "frac"},
    {"store.snapshot.write_share", "frac"},
    {"branch.merge.fold_share", "frac"},
    {"branch.merge.verify_share", "frac"},
    {"branch.merge.commit_share", "frac"},
    {"server.admit_wait_share", "frac"},
    {"server.batch_wait_share", "frac"},
    {"server.store_share", "frac"},
    {"server.respond_share", "frac"},
    {"server.wire_share", "frac"},
    {"xml.parsed_bytes_per_checkout", "bytes"},
    {"pul.decoded_bytes_per_checkout", "bytes"},
    {"label.builds_per_merge", "count"},
    {"core.reduce.shards", "count"},
    {"core.reduce.ops_per_shard", "count"},
    {"core.reduce.rule_applications", "count"},
    {"core.integrate.conflicts", "count"},
    {"store.fsyncs_per_commit", "count"},
    {"store.snapshot.bytes_per_commit", "bytes"},
    {"store.journal_bytes_per_commit", "bytes"},
    {"store.checkout.replayed_frames", "count"},
    {"store.open.replayed_frames", "count"},
    {"store.compact.bytes_saved", "bytes"},
    {"store.compact.segments_skipped_frac", "frac"},
    {"branch.merge.fallback_frac", "frac"},
    {"server.jobs_per_batch", "count"},
    {"server.busy_frac", "frac"},
    {"commit.unattributed_frac", "frac"},
    {"checkout.unattributed_frac", "frac"},
    {"merge.unattributed_frac", "frac"},
    {"reduce.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

bool IsShare(const std::string& name) {
  return name.size() > 6 && name.compare(name.size() - 6, 6, "_share") == 0;
}

std::string CpuMhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string Fingerprint(const RunConfig& config) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"mhz\": \"" << CpuMhz() << "\", \"compiler\": \"gcc "
      << __VERSION__ << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"fsync\": \"always\", \"parallelism\": " << config.parallelism
      << ", \"workload\": \"" << config.workload << "\", \"seed\": "
      << config.seed << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0) << "}";
  return out.str();
}

// One operation's exact percentiles. A tail percentile is printed only
// when at least ten samples lie beyond it.
std::string OpLine(const std::string& op, const std::vector<double>& ms) {
  Summary wall = Summarize(ms);
  std::ostringstream out;
  out << "  " << op << "_p50_ms " << FormatNumber(wall.p50) << " ms (n="
      << wall.n << ")";
  if (wall.n >= 100) out << "  p90 " << FormatNumber(wall.p90);
  if (wall.n >= 1000) out << "  p99 " << FormatNumber(wall.p99);
  out << "  mean " << FormatNumber(wall.mean);
  return out.str();
}

// End-to-end metrics from the untraced samples, at reference speed:
// wall timings are divided by the probe's wall factor, CPU time by its
// CPU factor.
bool EndToEnd(const WorkloadResult& r, MetricSet* out, std::string* error) {
  const double wall = r.pace.WallFactor();
  const double cpu = r.pace.CpuFactor();
  if (!(wall > 0.0) || !(cpu > 0.0)) {
    *error = "the machine-speed probe never ran";
    return false;
  }
  std::vector<double> p50s;
  for (const std::string& op : r.headline_ops) {
    auto it = r.ops.find(op);
    if (it == r.ops.end() || it->second.empty()) {
      *error = "no samples for operation " + op;
      return false;
    }
    p50s.push_back(Percentile(it->second, 0.5));
  }
  const double values[] = {
      Percentile(r.setup_s, 0.5) / wall,
      Percentile(r.window_items_per_s, 0.5) * wall,
      GeoMean(p50s) / wall,
      Percentile(r.window_cpu_ms_per_item, 0.5) / cpu,
  };
  static_assert(std::size(values) == std::size(kEndToEnd));
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    if (!(values[i] > 0.0)) {
      *error = std::string("end-to-end metric ") + kEndToEnd[i].name +
               " is not positive";
      return false;
    }
    if (!out->Add(kEndToEnd[i].name, values[i], kEndToEnd[i].unit)) {
      *error = out->error();
      return false;
    }
  }
  return true;
}

// Per-layer metrics from the traced run.
bool PerLayer(WorkloadResult& r, MetricSet* out, std::string* error) {
  const Spans& spans = r.spans;
  // Tracing overhead: the traced loop's headline medians against the
  // untraced loop's, as a geometric mean over operations.
  std::vector<double> traced;
  std::vector<double> untraced;
  for (const std::string& op : r.headline_ops) {
    auto a = r.ops.find(op);
    auto b = r.traced_ops.find(op);
    if (a == r.ops.end() || b == r.traced_ops.end()) continue;
    untraced.push_back(Percentile(a->second, 0.5));
    traced.push_back(Percentile(b->second, 0.5));
  }
  r.layer_values["trace.overhead_frac"] =
      Ratio(GeoMean(traced), GeoMean(untraced)) - 1.0;
  for (const MetricSpec& spec : kPerLayer) {
    const std::string name = spec.name;
    double value = 0.0;
    auto given = r.layer_values.find(name);
    if (given != r.layer_values.end()) {
      value = given->second;
    } else if (std::strcmp(spec.unit, "ms") == 0) {
      const std::string layer = name.substr(0, name.size() - 3);
      const std::vector<double>& calls = spans.Calls(layer);
      if (calls.empty()) {
        *error = "layer " + layer + " was never measured";
        return false;
      }
      value = Percentile(calls, 0.5);
    } else if (IsShare(name)) {
      const std::string layer = name.substr(0, name.size() - 6);
      value = Ratio(spans.Total(layer), spans.TotalWall());
    }
    if (!out->Add(name, value, spec.unit)) {
      *error = out->error();
      return false;
    }
  }
  return true;
}

void WriteSpans(const RunConfig& config, const std::string& out_dir,
                const WorkloadResult& r, const std::string& fingerprint) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string path = out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"fingerprint\": " << fingerprint << "}\n";
  for (const Spans::Event& e : r.spans.events()) {
    out << "{\"op\": \"" << e.op << "\", \"item\": " << e.item
        << ", \"layer\": \"" << e.layer << "\", \"parent\": \"" << e.parent
        << "\", \"start_us\": " << FormatNumber(e.start_us)
        << ", \"dur_us\": " << FormatNumber(e.dur_us)
        << ", \"leaf\": " << (e.leaf ? "true" : "false") << "}\n";
  }
  std::cout << "spans: " << r.spans.events().size() << " written to " << path
            << "\n";
}

int Usage() {
  std::cerr << "usage: perfbench --workload reason|history|serve --seed N "
               "--seconds S --trace 0|1 --work-root DIR [--out-dir DIR]\n"
               "       perfbench --list-metrics\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string work_root;
  std::string out_dir;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const MetricSpec& m : kPerLayer) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (flag == "--work-root") {
      work_root = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  WorkloadFn fn = nullptr;
  if (config.workload == "reason") fn = RunReason;
  if (config.workload == "history") fn = RunHistory;
  if (config.workload == "serve") fn = RunServe;
  if (fn == nullptr || !have_seed || work_root.empty()) return Usage();
#ifdef PERFBENCH_UNOPTIMIZED
  std::cerr << "refusing to benchmark an unoptimized build (assertions on "
               "or no -O); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 1;
#endif
  // Two threads, not one per core: on a shared host, a run that keeps
  // every core busy measures the host's scheduler more than the program.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  config.parallelism = static_cast<int>(std::min(2u, hw));
  // A fresh scratch directory per run, removed at exit whatever happens
  // inside the workload.
  config.work_dir = work_root + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{config.work_dir};

  const std::string fingerprint = Fingerprint(config);
  std::cout << "fingerprint: " << fingerprint << "\n" << std::flush;
  WorkloadResult result = fn(config);

  std::cout << config.workload << " (seed " << config.seed << ", "
            << (config.trace ? "traced" : "untraced") << "): "
            << result.items << " items in " << FormatNumber(result.busy_s)
            << " s busy; failed " << result.failed << " / attempted "
            << result.attempted << "; error_rate "
            << FormatNumber(Ratio(static_cast<double>(result.failed),
                                  static_cast<double>(result.attempted)))
            << "\n";
  for (const std::string& e : result.errors) {
    std::cout << "  FAILED: " << e << "\n";
  }
  std::cout << "  setup_s " << FormatNumber(Percentile(result.setup_s, 0.5))
            << " s (n=" << result.setup_s.size() << ")\n";
  for (const auto& [op, stats] : result.ops) {
    std::cout << OpLine(op, stats) << "\n";
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  result.report_only.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"});
  std::cout << "  machine speed: probe wall x"
            << FormatNumber(result.pace.WallFactor()) << ", cpu x"
            << FormatNumber(result.pace.CpuFactor()) << " of reference (n="
            << result.pace.probes() << "); windows "
            << result.window_items_per_s.size() << "; raw setup_s "
            << FormatNumber(Percentile(result.setup_s, 0.5))
            << " s, items_per_s "
            << FormatNumber(Ratio(static_cast<double>(result.items),
                                  result.busy_s))
            << " 1/s, cpu_ms_per_item "
            << FormatNumber(
                   Ratio(result.cpu_ms, static_cast<double>(result.items)))
            << " ms\n";
  if (!result.pace.consistent()) {
    result.Fail("machine-speed probe: results differ between probes");
  }
  for (const Metric& m : result.report_only) {
    std::cout << "  " << m.name << " " << FormatNumber(m.value) << " "
              << m.unit << "\n";
  }
  MetricSet metrics;
  std::string error;
  bool ok = true;
  if (config.trace) {
    for (const auto& [op, stats] : result.traced_ops) {
      std::cout << "  traced" << OpLine(op, stats).substr(1) << "\n";
    }
    std::cout << "  layers (median ms per call, n calls, total ms):\n";
    std::map<std::string, bool> seen;
    for (const Spans::Event& e : result.spans.events()) {
      if (seen.emplace(e.layer, true).second) {
        const std::vector<double>& calls = result.spans.Calls(e.layer);
        std::cout << "    " << e.layer << " "
                  << FormatNumber(Percentile(calls, 0.5)) << " ms (n="
                  << calls.size() << ", total "
                  << FormatNumber(result.spans.Total(e.layer)) << ")\n";
      }
    }
    for (const char* op : {"commit", "checkout", "merge", "reduce"}) {
      std::cout << "  " << op << " decomposed n="
                << result.spans.Decomposed(op) << "\n";
    }
    ok = PerLayer(result, &metrics, &error);
    WriteSpans(config, out_dir.empty() ? work_root : out_dir, result,
               fingerprint);
  } else {
    ok = EndToEnd(result, &metrics, &error);
  }
  if (!ok) result.Fail("metrics: " + error);
  for (const Metric& m : metrics.metrics()) {
    std::cout << "  " << m.name << " = " << FormatNumber(m.value) << " "
              << m.unit << "\n";
  }
  if (result.attempted == 0) {
    // Count the empty run as one failed attempt.
    result.attempted = 1;
    result.Fail("no item completed");
  }
  const bool correct = result.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics.ToJson() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
