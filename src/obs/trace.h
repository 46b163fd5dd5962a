#ifndef XUPDATE_OBS_TRACE_H_
#define XUPDATE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xupdate::obs {

// Decision-provenance tracing for the reasoning engines.
//
// The engines emit typed events (which Figure 2 rule fired on which
// operation pair, which conflict class was detected, which policy
// resolved it, which shard an operation was assigned to) into a Tracer.
// Everything is keyed on *stable operation identities* — PUL listing
// ranks ("#12"), per-PUL refs ("P0#3"), aggregate slots ("agg#4") —
// never on pointers or node ids of transient copies.
//
// Determinism discipline (mirrors the PR-1 parallel engine contract):
// every event carries a (phase, lane, seq) sort key. `phase` is a
// monotonic ordinal handed out by Tracer::NextPhase() on the
// coordinating thread; `lane` is 0 for the coordinator and 1+shard
// index for shard workers; `seq` counts emissions per TraceLane handle.
// Exactly one live TraceLane exists per (phase, lane), so the key is a
// total order and sorting on flush yields the same event sequence for
// every parallelism level and every run of the same input. Wall-clock
// timestamps are captured too, but they are confined to the Chrome
// trace sink; the JSONL journal never contains them.
//
// Cost discipline: a disabled tracer is a null pointer. Every emission
// site guards with `if (lane.enabled())` (or holds a null TraceLane),
// so the disabled path costs one branch — enforced by
// bench/trace_overhead_check.

enum class EventKind : uint8_t {
  kSpanBegin,         // nestable phase/region start (name = span name)
  kSpanEnd,           // matching region end
  kShardAssigned,     // ops = operation ids placed into shard `lane`
  kRuleFired,         // name = Figure 2 rule; ops = inputs; result = merged id
  kConflictDetected,  // name = conflict class; ops = members; result = overrider
  kPolicyApplied,     // name = resolution; ops = members; result = kept id
  kFastPathTaken,     // name = which tier skipped the dynamic phase
  kOpSurvived,        // name = op kind; ops = [input id]; result = output id
  kNote,              // free-form bookkeeping (input inventories etc.)
};

// Stable operation ids for event `ops`/`result` fields: "#<rank>" for a
// listing rank within one PUL (reduce), "P<pul>#<op>" for operation `op`
// of input PUL `pul` (integrate, reconcile, aggregate, analyze).
std::string RankId(size_t rank);
std::string RefId(int64_t pul, int64_t op);

// Stable wire names ("rule-fired", ...) used by the sinks and `explain`.
std::string_view EventKindName(EventKind kind);
// Inverse of EventKindName; false if `name` is not a known kind.
bool EventKindFromName(std::string_view name, EventKind* out);

struct TraceEvent {
  // Deterministic sort key; see the file comment.
  uint32_t phase = 0;
  uint32_t lane = 0;
  uint64_t seq = 0;
  EventKind kind = EventKind::kNote;
  std::string scope;              // operator: "reduce", "integrate", ...
  std::string name;               // rule / conflict / policy / span name
  std::vector<std::string> ops;   // stable operation ids involved
  std::string result;             // produced/kept operation id, or ""
  std::string detail;             // free-form human context
  // Microseconds since tracer creation. Chrome sink only — excluded
  // from the JSONL journal to keep it byte-deterministic.
  double t_us = 0.0;
};

class Tracer;

// Emission handle for one (phase, lane) pair. Create exactly one per
// pair and do not share it between concurrently running threads: the
// seq counter is deliberately unsynchronized (hand-off from the
// coordinator to a pool worker is fine — the pool's task queue provides
// the happens-before edge). A default-constructed lane is disabled and
// swallows emissions, so engine code can hold lanes unconditionally.
class TraceLane {
 public:
  TraceLane() = default;
  TraceLane(Tracer* tracer, uint32_t phase, uint32_t lane,
            std::string_view scope)
      : tracer_(tracer), phase_(phase), lane_(lane), scope_(scope) {}

  bool enabled() const { return tracer_ != nullptr; }

  void Emit(EventKind kind, std::string_view name,
            std::vector<std::string> ops = {}, std::string result = {},
            std::string detail = {});

 private:
  Tracer* tracer_ = nullptr;
  uint32_t phase_ = 0;
  uint32_t lane_ = 0;
  uint64_t seq_ = 0;
  std::string scope_;
};

// Collects events from one engine invocation (or a CLI command's worth
// of invocations). Thread-safe appends; flush through the sinks in
// obs/sinks.h.
class Tracer {
 public:
  Tracer() : created_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Allocates the next phase ordinal. Call on the coordinating thread
  // only, in a parallelism-independent order.
  uint32_t NextPhase();

  // Builds the emission handle for (phase, lane). `scope` names the
  // operator and is stamped on every event the lane emits.
  TraceLane Lane(uint32_t phase, uint32_t lane, std::string_view scope) {
    return TraceLane(this, phase, lane, scope);
  }

  // Thread-safe; stamps the wall-clock offset. Engine code goes through
  // TraceLane::Emit instead.
  void Append(TraceEvent event);

  // All events sorted by (phase, lane, seq) — the deterministic journal
  // order.
  std::vector<TraceEvent> SortedEvents() const;

  size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  uint32_t next_phase_ = 0;
  std::chrono::steady_clock::time_point created_;
};

// Emits span-begin on construction and span-end on destruction. Null or
// disabled lanes make it a no-op.
class TraceSpan {
 public:
  TraceSpan(TraceLane* lane, std::string_view name) : lane_(lane) {
    if (lane_ != nullptr && lane_->enabled()) {
      name_ = name;
      lane_->Emit(EventKind::kSpanBegin, name_);
    }
  }
  ~TraceSpan() {
    if (lane_ != nullptr && lane_->enabled() && !name_.empty()) {
      lane_->Emit(EventKind::kSpanEnd, name_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceLane* lane_;
  std::string name_;
};

}  // namespace xupdate::obs

#endif  // XUPDATE_OBS_TRACE_H_
