#include "core/reduce.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "label/node_label.h"
#include "obs/trace.h"
#include "pul/pul_view.h"
#include "pul/update_op.h"
#include "xml/serializer.h"

namespace xupdate::core {

namespace {

using label::NodeLabel;
using pul::OpClass;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

// Figure 2's name for a same-target override by `overrider`.
const char* SameTargetRule(OpKind overrider) {
  return overrider == OpKind::kReplaceChildren ? "O2" : "O1";
}

// Where a merge partner's target lies, seen from the anchor op's target.
enum class Relation : uint8_t {
  kSameTarget,   // the anchor's own target
  kParent,       // parent of the anchor's non-attribute target
  kAttrParent,   // parent of the anchor's attribute target
  kFirstParent,  // parent of the anchor's target, a first child
  kLastParent,   // parent of the anchor's target, a last child
  kLeftSibling,  // left sibling of the anchor's non-attribute target
};

// I5's kind: any insertion kind, the same on both ops.
constexpr OpKind kAnyInsertion = static_cast<OpKind>(0xff);

// One merge rule of Figure 2: op1 = kind1(v1,L1) and op2 = kind2(v2,L2)
// with v1, v2 in `relation` fold into one op of the `shape` op's kind on
// its target, with parameters [L1,L2] — or [L2,L1] if `swap`.
// The relation is read off the `anchor` op's label, since only targets
// are indexed.
struct MergeRule {
  const char* name;
  int stage;
  OpKind kind1;
  OpKind kind2;
  Relation relation;
  int anchor;  // role, 1 or 2
  int shape;   // role, 1 or 2
  bool swap;
};

using enum OpKind;
using enum Relation;

// Both drivers try a stage's rows in table order.
// Columns: name, stage, kind1, kind2, relation, anchor, shape, swap.
// IR19/IR20's parameter orders are the corrected ones (DESIGN.md §1).
// clang-format off
constexpr MergeRule kMergeRules[] = {
  {"I5",   1, kAnyInsertion, kAnyInsertion,  kSameTarget,  1, 1, false},
  {"I6",   2, kInsInto,      kInsFirst,      kSameTarget,  1, 2, true},
  {"I7",   3, kInsInto,      kInsLast,       kSameTarget,  1, 2, false},
  {"IR8",  4, kReplaceNode,  kInsBefore,     kSameTarget,  1, 1, true},
  {"IR9",  4, kReplaceNode,  kInsAfter,      kSameTarget,  1, 1, false},
  {"I10",  5, kInsInto,      kInsBefore,     kParent,      2, 2, false},
  {"I11",  6, kInsInto,      kInsAfter,      kParent,      2, 2, true},
  {"IR12", 7, kReplaceNode,  kInsInto,       kParent,      1, 1, false},
  {"IR13", 8, kReplaceNode,  kInsAttributes, kAttrParent,  1, 1, false},
  {"I14",  8, kInsBefore,    kInsFirst,      kFirstParent, 1, 1, true},
  {"I15",  8, kInsAfter,     kInsLast,       kLastParent,  1, 1, false},
  {"IR16", 8, kReplaceNode,  kInsFirst,      kFirstParent, 1, 1, true},
  {"IR17", 8, kReplaceNode,  kInsLast,       kLastParent,  1, 1, false},
  {"I18",  9, kInsBefore,    kInsAfter,      kLeftSibling, 1, 1, true},
  {"IR19", 9, kReplaceNode,  kInsAfter,      kLeftSibling, 1, 1, true},
  {"IR20", 9, kReplaceNode,  kInsBefore,     kLeftSibling, 2, 1, false},
};
// clang-format on

// The lookup both drivers share: for `op` in `role` of `rule`, the
// target whose TargetIndex chain holds its partners, with the partner
// kind in `*partner_kind`; kInvalidNode if op's kind or label rules the
// rule out. Roles other than the anchor are looked up on the same
// target only.
NodeId PartnerChain(const MergeRule& rule, int role, const UpdateOp& op,
                    OpKind* partner_kind) {
  OpKind mine = role == 1 ? rule.kind1 : rule.kind2;
  OpKind other = role == 1 ? rule.kind2 : rule.kind1;
  if (mine == kAnyInsertion) {
    if (pul::ClassOf(op.kind) != OpClass::kInsertion) return kInvalidNode;
    other = op.kind;
  } else if (op.kind != mine) {
    return kInvalidNode;
  }
  *partner_kind = other;
  if (rule.relation == kSameTarget) return op.target;
  const NodeLabel& lab = op.target_label;
  if (!lab.valid()) return kInvalidNode;
  bool attribute = lab.type == NodeType::kAttribute;
  switch (rule.relation) {
    case kParent:
      return attribute ? kInvalidNode : lab.parent;
    case kAttrParent:
      return attribute ? lab.parent : kInvalidNode;
    case kFirstParent:
      return attribute || lab.left_sibling != kInvalidNode ? kInvalidNode
                                                            : lab.parent;
    case kLastParent:
      return attribute || !lab.is_last_child ? kInvalidNode : lab.parent;
    case kLeftSibling:
      return attribute ? kInvalidNode : lab.left_sibling;
    case kSameTarget:
      break;
  }
  return kInvalidNode;
}

// Reduction engine over a working copy of the input PUL's operations.
// The merge rules come from kMergeRules through two drivers. The
// worklist driver (plain and deterministic modes) fires, for each op in
// turn, the first row of the stage that finds an alive partner through
// PartnerChain — a TargetIndex lookup on the target its label names.
// The canonical driver scans every anchor op of a stage's rows and fires
// the <p-minimal pair of the first row that has one (Definition 9). The
// drop rules O1/O2 use the same target chains; the A-D rules O3/O4 use
// one O(k log k) interval sweep per pass — matching the paper's
// optimized algorithm (§3.1).
//
// The engine works on the `chunk` operations (indices into input.ops(),
// in listing order), reading the shared input forest but never touching
// it — several Reducers over disjoint chunks may run concurrently. Ranks
// are the global listing indices, so chunk survivors merge into the same
// order a whole-PUL run produces.
//
// `lanes` (tracing only) maps each listing rank to the trace lane of its
// component. Rules never relate ops of two components, and a merged op
// inherits a constituent's rank, so every event lands on one lane.
class Reducer {
 public:
  Reducer(const Pul& input, ReduceMode mode, const std::vector<int>& chunk,
          const std::vector<obs::TraceLane*>* lanes)
      : input_(input), mode_(mode), chunk_(chunk), lanes_(lanes) {}

  // Runs the rule fixpoint (the caller has already checked Definition 3
  // compatibility). Infallible by construction; returns Status to fit
  // the pool's exception-free task convention.
  Status RunRules();

  // Survivors of the fixpoint in working-set order. `op` and `key` point
  // into this Reducer and stay valid while it lives; `key` (the <o sort
  // key) is set only in canonical mode.
  struct Survivor {
    size_t rank;
    const std::string* key;
    const UpdateOp* op;
  };
  void CollectSurvivors(std::vector<Survivor>* out);

  size_t rule_applications() const { return applications_; }

 private:
  bool Alive(int i) const { return alive_[static_cast<size_t>(i)] != 0; }
  // The working set is a pointer view: base operations alias the input
  // PUL (never copied), merged and stage-10-rewritten operations live in
  // owned_ (a deque, so addresses stay stable as it grows).
  const UpdateOp& Op(int i) const { return *view_[static_cast<size_t>(i)]; }
  size_t NumOps() const { return view_.size(); }

  void Kill(int i) {
    alive_[static_cast<size_t>(i)] = 0;
    ++applications_;
  }

  // Stable id of a working-set op: its inherited listing rank. Merge
  // constituent sets are disjoint, so min-rank inheritance keeps the ids
  // unique across the whole run.
  std::string Id(int i) const {
    return obs::RankId(rank_[static_cast<size_t>(i)]);
  }

  // Trace lane of op i's component; null when not tracing.
  obs::TraceLane* Lane(int i) const {
    return lanes_ == nullptr ? nullptr
                             : (*lanes_)[rank_[static_cast<size_t>(i)]];
  }

  // rule-fired event with no result = pure kill: ops[0] overrides
  // ops[1].
  void EmitKill(const char* rule, int killer, int victim) {
    obs::TraceLane* lane = Lane(victim);
    if (lane == nullptr) return;
    lane->Emit(obs::EventKind::kRuleFired, rule, {Id(killer), Id(victim)},
               {},
               std::string(pul::OpKindName(Op(killer).kind)) +
                   " overrides " +
                   std::string(pul::OpKindName(Op(victim).kind)));
  }

  int AddMerged(UpdateOp op, size_t rank) {
    int index = static_cast<int>(view_.size());
    by_target_.Append(op.target, index);
    owned_.push_back(std::move(op));
    view_.push_back(&owned_.back());
    alive_.push_back(1);
    queued_.push_back(0);
    rank_.push_back(rank);
    return index;
  }

  // The first alive op with the given target and kind other than
  // `exclude`, in chain (append) order; -1 if none.
  int FirstPartner(NodeId target, OpKind kind, int exclude) const {
    for (int32_t j = by_target_.Head(target); j >= 0;
         j = by_target_.Next(j)) {
      if (j != exclude && Alive(j) && Op(j).kind == kind) return j;
    }
    return -1;
  }

  // Fires `rule` on ops op1 and op2 in their rule roles.
  void ApplyMerge(const MergeRule& rule, int op1, int op2) {
    int shape_from = rule.shape == 1 ? op1 : op2;
    int first = rule.swap ? op2 : op1;
    int second = rule.swap ? op1 : op2;
    UpdateOp merged;
    merged.kind = Op(shape_from).kind;
    merged.target = Op(shape_from).target;
    merged.target_label = Op(shape_from).target_label;
    merged.param_trees = Op(first).param_trees;
    merged.param_trees.insert(merged.param_trees.end(),
                              Op(second).param_trees.begin(),
                              Op(second).param_trees.end());
    size_t rank = std::min(rank_[static_cast<size_t>(first)],
                           rank_[static_cast<size_t>(second)]);
    Kill(first);
    if (second != first) alive_[static_cast<size_t>(second)] = 0;
    int index = AddMerged(std::move(merged), rank);
    if (obs::TraceLane* lane = Lane(index)) {
      lane->Emit(obs::EventKind::kRuleFired, rule.name,
                 {Id(first), Id(second)}, Id(index),
                 std::string(pul::OpKindName(Op(index).kind)));
    }
    Enqueue(index);
  }

  void Enqueue(int i) {
    if (queued_[static_cast<size_t>(i)] == 0) {
      queued_[static_cast<size_t>(i)] = 1;
      worklist_.push_back(i);
    }
  }
  void EnqueueBucket(NodeId target) {
    for (int32_t j = by_target_.Head(target); j >= 0;
         j = by_target_.Next(j)) {
      if (Alive(j)) Enqueue(j);
    }
  }

  // Worklist driver: fires the first rule of `stage` that op `i` can
  // join. Returns true if a rule fired (i or a partner may now be dead).
  bool MergeFrom(int stage, int i);
  // Same-target drop rules O1/O2 centered on op `i`.
  bool TryDropRules(int i);
  // O3/O4: drops every op whose target lies strictly inside the interval
  // of a repN/del (or non-attribute-inside a repC) target.
  bool SweepOverrides();

  // Worklist fixpoint of the rules of `stage` (plain/deterministic).
  bool StageFixpoint(int stage);
  // One canonical-order application for `stage`; true if something fired.
  bool CanonicalStageStep(int stage);

  // <o sort key (document order of targets, then parameter order).
  const std::string& OpKey(int i);

  const Pul& input_;
  ReduceMode mode_;
  const std::vector<int>& chunk_;
  std::vector<const UpdateOp*> view_;  // op i; aliases input_ or owned_
  std::deque<UpdateOp> owned_;         // merged + stage-10-rewritten ops
  std::vector<char> alive_;
  std::vector<char> queued_;
  std::vector<size_t> rank_;  // PUL listing order, inherited by merges
  std::deque<int> worklist_;
  pul::TargetIndex by_target_;
  // <o keys are a function of the op's content, which never changes
  // after creation, so the cache is append-only across canonical steps.
  // Deque, not vector: OpKey hands out references that must survive the
  // cache growing when merges append ops mid-fixpoint.
  std::deque<std::string> key_cache_;
  std::vector<char> key_computed_;
  pul::ContainmentSweep sweep_;  // O3/O4 scratch, reused across passes
  const std::vector<obs::TraceLane*>* lanes_;
  size_t applications_ = 0;
};

bool Reducer::TryDropRules(int i) {
  const UpdateOp& op = Op(i);
  // O1/O2, as the overridden side: the first partner of the first
  // overriding kind, repN before del before repC.
  for (OpKind kind : {OpKind::kReplaceNode, OpKind::kDelete,
                      OpKind::kReplaceChildren}) {
    if (!pul::OverridesSameTarget(kind, op.kind)) continue;
    int killer = FirstPartner(op.target, kind, i);
    if (killer >= 0) {
      EmitKill(SameTargetRule(kind), killer, i);
      Kill(i);
      return true;
    }
  }
  // As the overriding side: drop the first overridden partner.
  if (!pul::OverridesSubtree(op.kind)) return false;
  for (int32_t j = by_target_.Head(op.target); j >= 0;
       j = by_target_.Next(j)) {
    if (j != i && Alive(j) && pul::OverridesSameTarget(op.kind, Op(j).kind)) {
      EmitKill(SameTargetRule(op.kind), i, j);
      Kill(j);
      return true;
    }
  }
  return false;
}

bool Reducer::MergeFrom(int stage, int i) {
  const UpdateOp& op = Op(i);
  for (const MergeRule& rule : kMergeRules) {
    if (rule.stage != stage) continue;
    // Children are not indexed, so a parent or sibling rule is tried from
    // its anchor only. A same-target rule is tried in both roles, anchor
    // first — once if the roles are symmetric (I5).
    bool both_roles =
        rule.relation == kSameTarget && rule.kind1 != rule.kind2;
    for (int role : {rule.anchor, 3 - rule.anchor}) {
      OpKind partner_kind{};
      NodeId chain = PartnerChain(rule, role, op, &partner_kind);
      int j =
          chain == kInvalidNode ? -1 : FirstPartner(chain, partner_kind, i);
      if (j >= 0) {
        int op1 = role == 1 ? i : j;
        int op2 = role == 1 ? j : i;
        // A symmetric rule keeps PUL listing order: the earlier op's
        // parameters first (rank survives merging, so chained merges stay
        // in order — matching the Table 3 worked example).
        if (rule.kind1 == rule.kind2 && rank_[static_cast<size_t>(op2)] <
                                            rank_[static_cast<size_t>(op1)]) {
          std::swap(op1, op2);
        }
        ApplyMerge(rule, op1, op2);
        return true;
      }
      if (!both_roles) break;
    }
  }
  return false;
}

bool Reducer::SweepOverrides() {
  // Rank breaks start-code ties among the queries and among the killers,
  // so the order is total: which of two same-target killers sits
  // outermost on the stack — and is named in the O3/O4 event — never
  // depends on the sort implementation or on which other ops share the
  // sweep.
  sweep_.Clear();
  for (size_t i = 0; i < NumOps(); ++i) {
    if (!Alive(static_cast<int>(i))) continue;
    const UpdateOp& op = Op(static_cast<int>(i));
    if (!op.target_label.valid()) continue;
    sweep_.AddOverrideEntries(op, static_cast<uint32_t>(rank_[i]),
                              static_cast<int32_t>(i));
  }
  bool any = false;
  sweep_.Run([&](const pul::SweepInterval& interval,
                 std::span<const pul::SweepInterval* const> enclosing) {
    if (pul::ContainmentSweep::IsOpening(interval)) return true;
    if (!Alive(interval.id)) return false;
    const UpdateOp& op = Op(interval.id);
    for (const pul::SweepInterval* k : enclosing) {
      const UpdateOp& killer = Op(k->id);
      if (killer.target == op.target) continue;  // same node: O1/O2 turf
      if (!pul::OverridesInner(killer.kind, killer.target, op.target_label)) {
        continue;
      }
      EmitKill(killer.kind == OpKind::kReplaceChildren ? "O4" : "O3", k->id,
               interval.id);
      Kill(interval.id);
      any = true;
      break;
    }
    return false;
  });
  return any;
}

bool Reducer::StageFixpoint(int stage) {
  bool any = false;
  if (stage == 1) {
    any |= SweepOverrides();
  }
  queued_.assign(NumOps(), 0);
  worklist_.clear();
  for (size_t i = 0; i < NumOps(); ++i) {
    if (Alive(static_cast<int>(i))) Enqueue(static_cast<int>(i));
  }
  while (!worklist_.empty()) {
    int i = worklist_.front();
    worklist_.pop_front();
    queued_[static_cast<size_t>(i)] = 0;
    if (!Alive(i)) continue;
    bool fired = true;
    while (fired && Alive(i)) {
      fired = false;
      if (stage == 1 && TryDropRules(i)) {
        fired = true;
        any = true;
        // A drop may enable rules for the remaining bucket members.
        EnqueueBucket(Op(i).target);
        continue;
      }
      if (MergeFrom(stage, i)) {
        fired = true;
        any = true;
      }
    }
  }
  return any;
}

const std::string& Reducer::OpKey(int i) {
  size_t idx = static_cast<size_t>(i);
  if (idx >= key_cache_.size()) {
    key_cache_.resize(NumOps());
    key_computed_.resize(NumOps(), 0);
  }
  if (key_computed_[idx] != 0) return key_cache_[idx];
  const UpdateOp& op = Op(i);
  std::string key;
  if (op.target_label.valid()) {
    key += '0';
    key += op.target_label.start.ToString();
  } else {
    key += '1';
    char buf[24];
    snprintf(buf, sizeof(buf), "%020llu",
             static_cast<unsigned long long>(op.target));
    key += buf;
  }
  key += '\x01';
  // Lexicographic order of the serialized parameters (<lex of <o).
  for (NodeId r : op.param_trees) {
    switch (input_.forest().type(r)) {
      case NodeType::kElement: {
        auto text = xml::SerializeSubtree(input_.forest(), r, {});
        if (text.ok()) key += *text;
        break;
      }
      case NodeType::kText:
        key += "t:";
        key += input_.forest().value(r);
        break;
      case NodeType::kAttribute:
        key += "a:";
        key += input_.forest().name(r);
        key += '=';
        key += input_.forest().value(r);
        break;
    }
    key += '\x02';
  }
  key += op.param_string;
  key_computed_[idx] = 1;
  key_cache_[idx] = std::move(key);
  return key_cache_[idx];
}

bool Reducer::CanonicalStageStep(int stage) {
  // Drops are order-insensitive: flush them first through the fast path.
  if (stage == 1) {
    bool dropped = SweepOverrides();
    for (size_t i = 0; i < NumOps(); ++i) {
      int idx = static_cast<int>(i);
      if (Alive(idx) && TryDropRules(idx)) dropped = true;
    }
    if (dropped) return true;
  }
  // Definition 9: fire the <p-minimal pair of the first rule that has
  // one. Pairs are ordered by OpKey(op1), then OpKey(op2); the strict <
  // keeps the first pair in scan order on a tie. A symmetric rule (I5)
  // meets each pair in both orders, so op1 is the <p-smaller op.
  for (const MergeRule& rule : kMergeRules) {
    if (rule.stage != stage) continue;
    int best1 = -1;
    int best2 = -1;
    for (size_t idx = 0; idx < NumOps(); ++idx) {
      int i = static_cast<int>(idx);
      if (!Alive(i)) continue;
      OpKind partner_kind{};
      NodeId chain = PartnerChain(rule, rule.anchor, Op(i), &partner_kind);
      if (chain == kInvalidNode) continue;
      for (int32_t j = by_target_.Head(chain); j >= 0;
           j = by_target_.Next(j)) {
        if (j == i || !Alive(j) || Op(j).kind != partner_kind) continue;
        int op1 = rule.anchor == 1 ? i : j;
        int op2 = rule.anchor == 1 ? j : i;
        if (best1 < 0 || OpKey(op1) < OpKey(best1) ||
            (OpKey(op1) == OpKey(best1) && OpKey(op2) < OpKey(best2))) {
          best1 = op1;
          best2 = op2;
        }
      }
    }
    if (best1 >= 0) {
      ApplyMerge(rule, best1, best2);
      return true;
    }
  }
  return false;
}

void Reducer::CollectSurvivors(std::vector<Survivor>* out) {
  for (size_t i = 0; i < NumOps(); ++i) {
    int idx = static_cast<int>(i);
    if (!Alive(idx)) continue;
    out->push_back({rank_[i],
                    mode_ == ReduceMode::kCanonical ? &OpKey(idx) : nullptr,
                    view_[i]});
  }
}

Status Reducer::RunRules() {
  view_.reserve(chunk_.size());
  rank_.reserve(chunk_.size());
  for (int global : chunk_) {
    rank_.push_back(static_cast<size_t>(global));
    view_.push_back(&input_.ops()[static_cast<size_t>(global)]);
  }
  alive_.assign(view_.size(), 1);
  queued_.assign(view_.size(), 0);
  by_target_.Reset(view_.size());
  for (size_t i = 0; i < view_.size(); ++i) {
    by_target_.Append(view_[i]->target, static_cast<int32_t>(i));
  }

  auto run_all_stages = [&]() {
    bool any = false;
    for (int stage = 1; stage <= 9; ++stage) {
      if (mode_ == ReduceMode::kCanonical) {
        // The key cache persists across steps: keys depend only on op
        // content, which is immutable once an op exists (merges create
        // new indices, stage 10 only flips the kind).
        while (CanonicalStageStep(stage)) {
          any = true;
        }
      } else {
        any |= StageFixpoint(stage);
      }
    }
    return any;
  };

  while (run_all_stages()) {
  }
  if (mode_ != ReduceMode::kPlain) {
    // Stage 10: determinize the surviving insInto operations. Base ops
    // alias the input, so the rewritten op is materialized in owned_.
    for (size_t i = 0; i < NumOps(); ++i) {
      if (Alive(static_cast<int>(i)) && Op(static_cast<int>(i)).kind == OpKind::kInsInto) {
        UpdateOp rewritten = Op(static_cast<int>(i));
        rewritten.kind = OpKind::kInsFirst;
        owned_.push_back(std::move(rewritten));
        view_[i] = &owned_.back();
        ++applications_;
        if (obs::TraceLane* lane = Lane(static_cast<int>(i))) {
          int idx = static_cast<int>(i);
          lane->Emit(obs::EventKind::kRuleFired, "S10", {Id(idx)}, Id(idx),
                     "insInto -> insFirst");
        }
      }
    }
    while (run_all_stages()) {
    }
  }
  return Status::OK();
}

// Chunks per worker thread: enough slack for uneven chunk runtimes to
// balance out across the pool, few enough that per-Reducer setup stays
// negligible next to the rule work.
constexpr size_t kChunksPerThread = 4;

// Packs the components (in first-op order) into at most
// kChunksPerThread * parallelism contiguous runs of roughly equal op
// count. A component is never split, so one larger than the per-chunk
// target forms a chunk of its own. Returns the first component of each
// chunk followed by components.size() as the end sentinel.
std::vector<size_t> PackChunks(const std::vector<std::vector<int>>& components,
                               size_t num_ops, int parallelism) {
  size_t max_chunks = kChunksPerThread * static_cast<size_t>(parallelism);
  size_t target = (num_ops + max_chunks - 1) / max_chunks;
  std::vector<size_t> begins;
  size_t filled = target;  // opens a chunk at the first component
  for (size_t c = 0; c < components.size(); ++c) {
    if (filled >= target) {
      begins.push_back(c);
      filled = 0;
    }
    filled += components[c].size();
  }
  begins.push_back(components.size());
  return begins;
}

}  // namespace

Result<pul::Pul> Reduce(const pul::Pul& input, const ReduceOptions& options,
                        ReduceStats* stats) {
  XUPDATE_RETURN_IF_ERROR(input.CheckCompatible());
  if (stats != nullptr) *stats = ReduceStats{};
  Metrics* metrics = options.metrics;
  if (metrics != nullptr) {
    metrics->AddCounter("reduce.calls");
    metrics->AddCounter("reduce.input_ops", input.size());
  }
  const size_t n = input.size();
  // An empty PUL has no decisions to journal.
  obs::Tracer* tracer = n > 0 ? options.tracer : nullptr;
  const bool tracing = tracer != nullptr;

  // Components are needed to pack chunks (parallelism > 1) and to name
  // the trace lanes (one per component, at every parallelism).
  std::vector<std::vector<int>> components;
  obs::TraceLane partition_lane;
  if (tracing) partition_lane = tracer->Lane(tracer->NextPhase(), 0, "reduce");
  if (tracing || (options.parallelism > 1 && n > 1)) {
    obs::TraceSpan span(&partition_lane, "partition");
    ScopedTimer timer(metrics, "reduce.partition_seconds");
    components = pul::PartitionByTargetSubtree(input.ops());
  }

  // chunk c solves components [chunk_begin[c], chunk_begin[c + 1]). At
  // parallelism 1 the whole PUL is one chunk.
  std::vector<size_t> chunk_begin = {0, components.size()};
  if (options.parallelism > 1 && components.size() > 1) {
    chunk_begin = PackChunks(components, n, options.parallelism);
  }
  const size_t num_chunks = chunk_begin.size() - 1;
  // Per-chunk op lists, in listing order. Ops start in chunk 0; the
  // components of every later chunk are marked below.
  std::vector<uint32_t> chunk_of(n, 0);
  for (size_t c = 1; c < num_chunks; ++c) {
    for (size_t k = chunk_begin[c]; k < chunk_begin[c + 1]; ++k) {
      for (int i : components[k]) {
        chunk_of[static_cast<size_t>(i)] = static_cast<uint32_t>(c);
      }
    }
  }
  std::vector<std::vector<int>> chunk_ops(num_chunks);
  for (size_t i = 0; i < n; ++i) {
    chunk_ops[chunk_of[i]].push_back(static_cast<int>(i));
  }

  // One rules-phase lane per component, created (with its shard-assigned
  // inventory) on the coordinating thread. A component lies in exactly
  // one chunk, so each lane is handed to exactly one pool task — the
  // task queue supplies the happens-before edge for its seq counter.
  std::vector<obs::TraceLane> lanes;
  std::vector<obs::TraceLane*> lane_of_rank;
  if (tracing) {
    uint32_t rules_phase = tracer->NextPhase();
    lanes.reserve(components.size());
    lane_of_rank.resize(n);
    for (size_t s = 0; s < components.size(); ++s) {
      lanes.push_back(
          tracer->Lane(rules_phase, static_cast<uint32_t>(s) + 1, "reduce"));
      std::vector<std::string> ids;
      ids.reserve(components[s].size());
      for (int g : components[s]) {
        ids.push_back(obs::RankId(static_cast<size_t>(g)));
        lane_of_rank[static_cast<size_t>(g)] = &lanes[s];
      }
      lanes[s].Emit(obs::EventKind::kShardAssigned, "shard", std::move(ids));
    }
  }

  std::vector<std::unique_ptr<Reducer>> reducers;
  reducers.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    reducers.push_back(std::make_unique<Reducer>(
        input, options.mode, chunk_ops[c], tracing ? &lane_of_rank : nullptr));
  }
  {
    ScopedTimer timer(metrics, "reduce.rules_seconds");
    // Several chunks only exist at parallelism > 1; one chunk runs inline.
    ThreadPool* pool = options.pool;
    std::unique_ptr<ThreadPool> local_pool;
    if (pool == nullptr && num_chunks > 1) {
      local_pool = std::make_unique<ThreadPool>(std::min<size_t>(
          static_cast<size_t>(options.parallelism), num_chunks));
      pool = local_pool.get();
    }
    // Every component lane of a chunk brackets the chunk's solve.
    auto emit_spans = [&](size_t c, obs::EventKind kind) {
      if (!tracing) return;
      for (size_t s = chunk_begin[c]; s < chunk_begin[c + 1]; ++s) {
        lanes[s].Emit(kind, "shard-solve");
      }
    };
    XUPDATE_RETURN_IF_ERROR(ParallelFor(pool, num_chunks, [&](size_t c) {
      ScopedTimer chunk_timer(metrics, "reduce.shard_solve_seconds");
      emit_spans(c, obs::EventKind::kSpanBegin);
      Status status = reducers[c]->RunRules();
      emit_spans(c, obs::EventKind::kSpanEnd);
      return status;
    }));
  }

  // Survivors are emitted in the <o order for canonical mode and in rank
  // order (the listing position of the earliest operation folded into
  // each survivor — unique, since merge constituent sets are disjoint)
  // for the other modes. Both orders depend only on the final operation
  // set, never on the rule-application interleaving or the chunking, so
  // the output is byte-identical at every parallelism.
  obs::TraceLane merge_lane;
  if (tracing) merge_lane = tracer->Lane(tracer->NextPhase(), 0, "reduce");
  ScopedTimer timer(metrics, "reduce.merge_seconds");
  obs::TraceSpan merge_span(&merge_lane, "merge");
  std::vector<Reducer::Survivor> survivors;
  size_t applications = 0;
  for (std::unique_ptr<Reducer>& r : reducers) {
    r->CollectSurvivors(&survivors);
    applications += r->rule_applications();
  }
  if (options.mode == ReduceMode::kCanonical) {
    std::sort(survivors.begin(), survivors.end(),
              [](const Reducer::Survivor& a, const Reducer::Survivor& b) {
                if (*a.key != *b.key) return *a.key < *b.key;
                return a.rank < b.rank;
              });
  } else {
    std::sort(survivors.begin(), survivors.end(),
              [](const Reducer::Survivor& a, const Reducer::Survivor& b) {
                return a.rank < b.rank;
              });
  }
  pul::Pul out;
  out.set_policies(input.policies());
  out.BindIdSpace(1);  // ids preserved on adoption; floor irrelevant
  for (const Reducer::Survivor& s : survivors) {
    XUPDATE_RETURN_IF_ERROR(out.AdoptOp(input.forest(), *s.op));
  }
  if (tracing) {
    for (size_t j = 0; j < survivors.size(); ++j) {
      merge_lane.Emit(obs::EventKind::kOpSurvived,
                      pul::OpKindName(survivors[j].op->kind),
                      {obs::RankId(survivors[j].rank)},
                      "out#" + std::to_string(j));
    }
  }
  if (stats != nullptr) {
    stats->input_ops = n;
    stats->output_ops = out.size();
    stats->rule_applications = applications;
    stats->shards = num_chunks;
  }
  if (metrics != nullptr) {
    metrics->AddCounter("reduce.shards", num_chunks);
    metrics->AddCounter("reduce.output_ops", out.size());
    metrics->AddCounter("reduce.rule_applications", applications);
  }
  return out;
}

Result<pul::Pul> Reduce(const pul::Pul& input, ReduceMode mode) {
  ReduceOptions options;
  options.mode = mode;
  return Reduce(input, options, nullptr);
}

}  // namespace xupdate::core
