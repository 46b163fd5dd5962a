#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

double ProcessCpuMs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

namespace {

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// The probe's fixed work: element-like strings from a xorshift stream,
// a hash index over them, a sort and a joined text, folded to a digest.
// Every allocation comes from one fresh arena, so the probe's cost does
// not depend on the state the workload left the process heap in.
uint64_t ReferenceWork() {
  constexpr int kKeys = 3000;
  static std::byte arena[1 << 20];
  std::pmr::monotonic_buffer_resource memory(arena, sizeof(arena));
  std::pmr::vector<std::pmr::string> keys(&memory);
  keys.reserve(kKeys);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  char buffer[64];
  for (int i = 0; i < kKeys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int n =
        std::snprintf(buffer, sizeof(buffer), "<item id=\"%llu\">%llu</item>",
                      static_cast<unsigned long long>(x % 1000003),
                      static_cast<unsigned long long>(x >> 40));
    keys.emplace_back(buffer, static_cast<size_t>(n));
  }
  std::pmr::unordered_map<std::string_view, int> index(&memory);
  for (int i = 0; i < kKeys; ++i) index.emplace(keys[i], i);
  std::vector<std::string_view> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  std::pmr::string joined(&memory);
  for (std::string_view k : sorted) joined += k;
  uint64_t h = Digest(joined);
  for (std::string_view k : sorted) h = h * 31 + index.at(k);
  return h;
}

}  // namespace

void Pace::Probe() {
  const double cpu0 = ThreadCpuMs();
  const Clock::time_point t0 = Clock::now();
  const uint64_t digest = ReferenceWork();
  last_ = Clock::now();
  wall_ms_.push_back(MsBetween(t0, last_));
  cpu_ms_.push_back(ThreadCpuMs() - cpu0);
  if (wall_ms_.size() == 1) digest_ = digest;
  if (digest != digest_) consistent_ = false;
}

void Pace::MaybeProbe() {
  if (wall_ms_.empty() || MsBetween(last_, Clock::now()) >= kEveryMs) Probe();
}

double Pace::WallFactor() const {
  return Percentile(wall_ms_, 0.5) / kReferenceMs;
}

double Pace::CpuFactor() const {
  return Percentile(cpu_ms_, 0.5) / kReferenceMs;
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void Spans::BeginItem(std::string_view op) {
  current_op_ = op;
  ++item_;
  item_attributed_ms_ = 0.0;
}

void Spans::EndItem(double wall_ms) {
  OpAccount& account = ops_[current_op_];
  ++account.items;
  account.wall_ms += wall_ms;
  account.attributed_ms += item_attributed_ms_;
  total_wall_ms_ += wall_ms;
  current_op_.clear();
}

void Spans::Record(std::string_view layer, const std::string& parent,
                   bool leaf, Clock::time_point start, Clock::time_point end) {
  const double ms = MsBetween(start, end);
  calls_[std::string(layer)].push_back(ms);
  if (leaf) item_attributed_ms_ += ms;
  events_.push_back(Event{current_op_, item_, std::string(layer), parent,
                          MsBetween(origin_, start) * 1e3, ms * 1e3, leaf});
}

void Spans::AddLeaf(std::string_view layer, double ms) {
  calls_[std::string(layer)].push_back(ms);
  item_attributed_ms_ += ms;
  // Measured by the program around the real call; stamped as ending now.
  events_.push_back(Event{current_op_, item_, std::string(layer),
                          current_op_,
                          MsBetween(origin_, Clock::now()) * 1e3 - ms * 1e3,
                          ms * 1e3, true});
}

const std::vector<double>& Spans::Calls(std::string_view layer) const {
  static const std::vector<double> kEmpty;
  auto it = calls_.find(layer);
  return it == calls_.end() ? kEmpty : it->second;
}

double Spans::Total(std::string_view layer) const {
  double total = 0.0;
  for (double ms : Calls(layer)) total += ms;
  return total;
}

double Spans::Unattributed(std::string_view op) const {
  auto it = ops_.find(op);
  if (it == ops_.end()) return 0.0;
  return UnattributedShare(it->second.attributed_ms, it->second.wall_ms);
}

size_t Spans::Decomposed(std::string_view op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? 0 : it->second.items;
}

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void WorkloadResult::Record(const std::string& op, double wall_ms,
                            double cpu, bool traced) {
  (traced ? traced_ops : ops)[op].push_back(wall_ms);
  if (traced) return;
  busy_s += wall_ms / 1e3;
  cpu_ms += cpu;
  ++items;
  pace.MaybeProbe();
}

void WorkloadResult::EndWindow() {
  if (items == window_items_) return;
  const double n = static_cast<double>(items - window_items_);
  window_items_per_s.push_back(Ratio(n, busy_s - window_busy_s_));
  window_cpu_ms_per_item.push_back((cpu_ms - window_cpu_ms_) / n);
  window_items_ = items;
  window_busy_s_ = busy_s;
  window_cpu_ms_ = cpu_ms;
}

}  // namespace perfbench
