#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

// Shared plumbing of the three workloads: run configuration, per-item
// timing (wall and process CPU), per-operation sample sets, the
// benchmark's own spans around public calls, oracle bookkeeping and
// byte digests.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Process CPU time (every thread), in milliseconds.
double ProcessCpuMs();

// A generator seed derived from the run's --seed and a per-use salt.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ull + salt;
}

// FNV-1a 64 over the bytes: the oracles compare digests where keeping
// every expected byte string would cost too much memory.
uint64_t Digest(std::string_view bytes);

// Bytes of every regular file under `dir`, recursively.
uint64_t DirectoryBytes(const std::string& dir);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Fresh per-run scratch root (stores, data dirs, sockets); the caller
  // removes it at exit.
  std::string work_dir;
  // Reasoning-engine parallelism and serve connections: min(2, nproc).
  int parallelism = 1;
};

// The benchmark's own spans around the public calls an operation is
// made of. A leaf span counts towards the operation's attributed time;
// a group span (a stage made of leaves) does not, so nesting never
// double-counts. Every span is also kept as a trace event.
class Spans {
 public:
  struct Event {
    std::string op;
    uint64_t item = 0;
    std::string layer;
    std::string parent;  // enclosing group span, else the operation
    double start_us = 0.0;
    double dur_us = 0.0;
    bool leaf = true;
  };

  Spans() : origin_(Clock::now()) {}

  // Opens the decomposition of one operation instance.
  void BeginItem(std::string_view op);
  // Closes it: `wall_ms` is the operation's own measured wall time.
  void EndItem(double wall_ms);

  template <typename F>
  auto Leaf(std::string_view layer, F&& fn) {
    return Timed(layer, true, std::forward<F>(fn));
  }
  template <typename F>
  auto Group(std::string_view layer, F&& fn) {
    return Timed(layer, false, std::forward<F>(fn));
  }
  // A leaf whose duration was measured by the program itself (a
  // Metrics timer delta around the real call).
  void AddLeaf(std::string_view layer, double ms);

  // Per-call durations of a layer across the run (ms).
  const std::vector<double>& Calls(std::string_view layer) const;
  // Sum of a layer's durations over every decomposed item (ms).
  double Total(std::string_view layer) const;
  // Sum of every decomposed item's wall time (ms).
  double TotalWall() const { return total_wall_ms_; }
  // 1 - attributed / wall over the decomposed items of `op`; 0 when the
  // operation was never decomposed.
  double Unattributed(std::string_view op) const;
  size_t Decomposed(std::string_view op) const;

  const std::vector<Event>& events() const { return events_; }

 private:
  template <typename F>
  auto Timed(std::string_view layer, bool leaf, F&& fn) {
    const Clock::time_point start = Clock::now();
    const std::string parent = open_.empty() ? current_op_ : open_.back();
    if (!leaf) open_.emplace_back(layer);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      if (!leaf) open_.pop_back();
      Record(layer, parent, leaf, start, Clock::now());
    } else {
      auto result = fn();
      if (!leaf) open_.pop_back();
      Record(layer, parent, leaf, start, Clock::now());
      return result;
    }
  }
  void Record(std::string_view layer, const std::string& parent, bool leaf,
              Clock::time_point start, Clock::time_point end);

  struct OpAccount {
    size_t items = 0;
    double wall_ms = 0.0;
    double attributed_ms = 0.0;
  };

  Clock::time_point origin_;
  std::string current_op_;
  std::vector<std::string> open_;  // group spans currently open
  uint64_t item_ = 0;
  double item_attributed_ms_ = 0.0;
  double total_wall_ms_ = 0.0;
  std::map<std::string, std::vector<double>, std::less<>> calls_;
  std::map<std::string, OpAccount, std::less<>> ops_;
  std::vector<Event> events_;
};

// Machine-speed probe. On a shared host the speed a run gets changes
// from run to run: other tenants' load steals processor time and
// crowds caches and memory, and every timing of the run moves by much
// the same factor. The probe measures that factor. It is a fixed unit
// of single-threaded standard-library work (string building, a hash
// index, a sort) that calls no xupdate code, so no change to the
// program can move it, and it runs only while the program is idle:
// between a single caller's items, and between the slices of the serve
// loop. The end-to-end timings are reported at reference speed: each
// is divided by the run's median probe time over kReferenceMs (wall
// timings by the probe's wall time, CPU time by its CPU time). The
// median, not the mean, so that a probe slowed by the program's own
// leftover activity (a server thread finishing a flush) does not count.
class Pace {
 public:
  // The unit of the factors below: the probe takes about this long,
  // wall and thread CPU, on an idle 4-vCPU 2.1 GHz Xeon KVM guest.
  static constexpr double kReferenceMs = 1.0;
  // Wall time between probes of MaybeProbe().
  static constexpr double kEveryMs = 25.0;

  // Runs the probe once.
  void Probe();
  // Runs the probe when kEveryMs of wall time passed since the last.
  void MaybeProbe();

  size_t probes() const { return wall_ms_.size(); }
  // Median probe time over the reference: above 1 on a slower host; 0
  // before the first probe.
  double WallFactor() const;
  double CpuFactor() const;
  // False when one probe's result differed from the others'.
  bool consistent() const { return consistent_; }

 private:
  Clock::time_point last_{};
  std::vector<double> wall_ms_;
  std::vector<double> cpu_ms_;
  uint64_t digest_ = 0;
  bool consistent_ = true;
};

// What one workload run hands back to the reporter.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for the report

  std::vector<double> setup_s;
  // Untraced per-item wall times (ms) by operation; `headline_ops`
  // enter the geometric mean of op_p50_ms.
  std::map<std::string, std::vector<double>, std::less<>> ops;
  std::vector<std::string> headline_ops;
  // Seconds the caller spent inside timed operations (single caller),
  // or the loop's wall time (concurrent connections).
  double busy_s = 0.0;
  uint64_t items = 0;  // items completed in the untraced loop
  double cpu_ms = 0.0;  // process CPU spent on those items
  // The untraced loop in windows of like work (a reason cycle, a
  // history epoch, the whole serve loop): each window's items per busy second
  // and CPU ms per item, so that the rates are medians over the run.
  std::vector<double> window_items_per_s;
  std::vector<double> window_cpu_ms_per_item;
  // Additional figures printed in the human report (deterministic
  // counts such as disk_bytes_per_pul_byte).
  std::vector<Metric> report_only;

  // Probes taken while the untraced loop ran.
  Pace pace;

  // Traced run only: the traced loop's samples and the spans.
  std::map<std::string, std::vector<double>, std::less<>> traced_ops;
  Spans spans;
  // Per-layer values the workload computed itself (counts, shares).
  std::map<std::string, double, std::less<>> layer_values;

  // Records an oracle failure (or an operation error) for item `what`.
  void Fail(const std::string& what);
  // Records one completed item of `op`: into traced_ops when `traced`,
  // else into ops and the untraced totals, and then runs the probe when
  // it is due (single-caller workloads record between items).
  void Record(const std::string& op, double wall_ms, double cpu,
              bool traced);
  // Closes the current window of the untraced loop (a no-op when no
  // item completed since the last).
  void EndWindow();

 private:
  uint64_t window_items_ = 0;
  double window_busy_s_ = 0.0;
  double window_cpu_ms_ = 0.0;
};

using WorkloadFn = WorkloadResult (*)(const RunConfig&);
WorkloadResult RunReason(const RunConfig& config);
WorkloadResult RunHistory(const RunConfig& config);
WorkloadResult RunServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
