#include "core/reconcile.h"

#include <algorithm>
#include <set>
#include <vector>

#include "label/node_label.h"
#include "pul/pul_view.h"

namespace xupdate::core {

namespace {

using pul::EffectiveKind;
using pul::OpClass;
using pul::OpKind;
using pul::Policies;
using pul::Pul;
using pul::UpdateOp;

// "Inserted data" in the sense of the §4.2 policies: repN, repC, repV or
// ins operations that put new content into the document.
bool InsertsData(const UpdateOp& op) {
  switch (op.kind) {
    case OpKind::kReplaceValue:
      return true;
    case OpKind::kReplaceNode:
    case OpKind::kReplaceChildren:
      return !op.param_trees.empty();
    default:
      return pul::ClassOf(op.kind) == OpClass::kInsertion;
  }
}

// "Removed data": repN, repC, repV or del operations take content away.
bool RemovesData(const UpdateOp& op) {
  switch (op.kind) {
    case OpKind::kDelete:
    case OpKind::kReplaceNode:
    case OpKind::kReplaceChildren:
    case OpKind::kReplaceValue:
      return true;
    default:
      return false;
  }
}

struct RefLess {
  bool operator()(const OpRef& a, const OpRef& b) const {
    return a.pul != b.pul ? a.pul < b.pul : a.op < b.op;
  }
};

// Stable trace ids, matching the integrate journal.
std::vector<std::string> RefIds(const std::vector<OpRef>& refs) {
  std::vector<std::string> ids;
  ids.reserve(refs.size());
  for (const OpRef& r : refs) ids.push_back(obs::RefId(r.pul, r.op));
  return ids;
}

class Reconciler {
 public:
  Reconciler(const std::vector<const Pul*>& puls,
             const ReconcileOptions& options, ReconcileStats* stats)
      : puls_(puls), options_(options), stats_(stats) {}

  Result<Pul> Run();

 private:
  const UpdateOp& OpOf(OpRef r) const {
    return puls_[static_cast<size_t>(r.pul)]->ops()[static_cast<size_t>(
        r.op)];
  }
  const Policies& PoliciesOf(OpRef r) const {
    return puls_[static_cast<size_t>(r.pul)]->policies();
  }
  bool CanExclude(OpRef r) const {
    const Policies& p = PoliciesOf(r);
    const UpdateOp& op = OpOf(r);
    if (p.preserve_inserted_data && InsertsData(op)) return false;
    if (p.preserve_removed_data && RemovesData(op)) return false;
    return true;
  }
  bool Excluded(OpRef r) const { return excluded_.count(r) != 0; }
  void Exclude(OpRef r) {
    if (excluded_.insert(r).second && stats_ != nullptr) {
      ++stats_->operations_excluded;
    }
  }

  // §4.2 precedence of conflicts sharing a focus node.
  int Rank(const Conflict& c) const;

  Status Solve(const Conflict& conflict);
  Status SolveOrderConflict(const std::vector<OpRef>& live);

  const std::vector<const Pul*>& puls_;
  const ReconcileOptions& options_;
  ReconcileStats* stats_;
  obs::TraceLane lane_;
  std::set<OpRef, RefLess> excluded_;
  // Generated order-merged insertions: source ops in parameter order.
  std::vector<std::vector<OpRef>> generated_;
};

int Reconciler::Rank(const Conflict& c) const {
  auto kind_of_members = [&]() { return EffectiveKind(OpOf(c.ops[0])); };
  switch (c.type) {
    case ConflictType::kRepeatedModification: {
      OpKind k = kind_of_members();
      if (k == OpKind::kReplaceNode) return 0;
      if (k == OpKind::kDelete) return 2;
      if (k == OpKind::kReplaceChildren) return 4;
      return 6;  // ren / repV
    }
    case ConflictType::kLocalOverride: {
      OpKind k = EffectiveKind(OpOf(c.overrider));
      if (k == OpKind::kReplaceNode) return 1;
      if (k == OpKind::kDelete) return 3;
      return 5;  // repC
    }
    case ConflictType::kRepeatedAttributeInsertion:
      return 6;
    case ConflictType::kInsertionOrder:
      return 7;
    case ConflictType::kNonLocalOverride:
      return 8;
  }
  return 9;
}

Status Reconciler::SolveOrderConflict(const std::vector<OpRef>& live) {
  // Producers demanding order preservation must come out contiguous and
  // first; two such producers cannot both win.
  std::set<int> order_producers;
  for (const OpRef& r : live) {
    if (PoliciesOf(r).preserve_insertion_order) order_producers.insert(r.pul);
  }
  if (order_producers.size() > 1) {
    return Status::UnresolvedConflict(
        "two producers require insertion-order preservation on node " +
        std::to_string(OpOf(live[0]).target));
  }
  int winner = order_producers.empty() ? -1 : *order_producers.begin();
  std::vector<OpRef> ordered = live;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const OpRef& a, const OpRef& b) {
                     bool aw = a.pul == winner;
                     bool bw = b.pul == winner;
                     if (aw != bw) return aw;
                     return RefLess()(a, b);
                   });
  for (const OpRef& r : live) Exclude(r);
  if (lane_.enabled()) {
    lane_.Emit(obs::EventKind::kPolicyApplied, "order-merge",
               RefIds(ordered), "gen#" + std::to_string(generated_.size()),
               winner >= 0 ? "insertion-order policy of P" +
                                 std::to_string(winner)
                           : std::string());
  }
  generated_.push_back(std::move(ordered));
  if (stats_ != nullptr) ++stats_->operations_generated;
  return Status::OK();
}

Status Reconciler::Solve(const Conflict& conflict) {
  std::vector<OpRef> live;
  for (const OpRef& r : conflict.ops) {
    if (!Excluded(r)) live.push_back(r);
  }
  if (conflict.symmetric()) {
    if (live.size() <= 1) {
      if (stats_ != nullptr) ++stats_->conflicts_auto_solved;
      if (lane_.enabled()) {
        lane_.Emit(obs::EventKind::kPolicyApplied, "auto-solved",
                   RefIds(conflict.ops),
                   live.empty() ? std::string()
                                : obs::RefId(live[0].pul, live[0].op),
                   "at most one member still live");
      }
      return Status::OK();
    }
    if (conflict.type == ConflictType::kInsertionOrder) {
      return SolveOrderConflict(live);
    }
    // Types 1-2: all but one excluded.
    std::vector<OpRef> must_keep;
    for (const OpRef& r : live) {
      if (!CanExclude(r)) must_keep.push_back(r);
    }
    if (must_keep.size() > 1) {
      return Status::UnresolvedConflict(
          "conflicting operations on node " +
          std::to_string(OpOf(live[0]).target) +
          " are all policy-protected");
    }
    OpRef keep = must_keep.empty() ? live[0] : must_keep[0];
    for (const OpRef& r : live) {
      if (!(r == keep)) Exclude(r);
    }
    if (lane_.enabled()) {
      lane_.Emit(obs::EventKind::kPolicyApplied, "keep-one", RefIds(live),
                 obs::RefId(keep.pul, keep.op), "all other members excluded");
    }
    return Status::OK();
  }
  // Asymmetric (types 4-5).
  if (Excluded(conflict.overrider) || live.empty()) {
    if (stats_ != nullptr) ++stats_->conflicts_auto_solved;
    if (lane_.enabled()) {
      lane_.Emit(obs::EventKind::kPolicyApplied, "auto-solved",
                 RefIds(conflict.ops), {},
                 "overrider already excluded or no member live");
    }
    return Status::OK();
  }
  bool all_overridden_excludable = true;
  for (const OpRef& r : live) {
    if (!CanExclude(r)) {
      all_overridden_excludable = false;
      break;
    }
  }
  if (all_overridden_excludable) {
    for (const OpRef& r : live) Exclude(r);
    if (lane_.enabled()) {
      lane_.Emit(obs::EventKind::kPolicyApplied, "exclude-overridden",
                 RefIds(live),
                 obs::RefId(conflict.overrider.pul, conflict.overrider.op),
                 "overrider wins; overridden side excludable");
    }
    return Status::OK();
  }
  if (CanExclude(conflict.overrider)) {
    Exclude(conflict.overrider);
    if (lane_.enabled()) {
      lane_.Emit(obs::EventKind::kPolicyApplied, "exclude-overrider",
                 {obs::RefId(conflict.overrider.pul, conflict.overrider.op)},
                 {},
                 "overridden side policy-protected");
    }
    return Status::OK();
  }
  return Status::UnresolvedConflict(
      "override of node " + std::to_string(OpOf(live[0]).target) +
      " cannot be reconciled under the producers' policies");
}

Result<Pul> Reconciler::Run() {
  Metrics* metrics = options_.metrics;
  if (metrics) metrics->AddCounter("reconcile.calls");
  IntegrateOptions integrate_options;
  integrate_options.parallelism = options_.parallelism;
  integrate_options.pool = options_.pool;
  integrate_options.schema = options_.schema;
  integrate_options.metrics = metrics;
  integrate_options.tracer = options_.tracer;
  XUPDATE_ASSIGN_OR_RETURN(IntegrationResult ir,
                           Integrate(puls_, integrate_options));
  if (stats_ != nullptr) {
    *stats_ = ReconcileStats{};
    stats_->conflicts_total = ir.conflicts.size();
  }
  if (metrics) metrics->AddCounter("reconcile.conflicts", ir.conflicts.size());
  if (ir.conflicts.empty()) return std::move(ir.merged);

  if (options_.tracer != nullptr) {
    lane_ = options_.tracer->Lane(options_.tracer->NextPhase(), 0,
                                  "reconcile");
  }

  // Order conflicts by focus node in document order, then by the
  // precedence list. Processing a conflict on node v only after every
  // conflict that might remove v keeps the resolution consistent.
  std::vector<const Conflict*> order;
  order.reserve(ir.conflicts.size());
  for (const Conflict& c : ir.conflicts) order.push_back(&c);
  auto focus_label = [&](const Conflict& c) -> const label::NodeLabel& {
    return c.symmetric() ? OpOf(c.ops[0]).target_label
                         : OpOf(c.overrider).target_label;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const Conflict* a, const Conflict* b) {
                     int cmp = focus_label(*a).start.Compare(
                         focus_label(*b).start);
                     if (cmp != 0) return cmp < 0;
                     return Rank(*a) < Rank(*b);
                   });

  {
    obs::TraceSpan span(&lane_, "solve");
    ScopedTimer timer(options_.metrics, "reconcile.solve_seconds");
    for (const Conflict* c : order) {
      XUPDATE_RETURN_IF_ERROR(Solve(*c));
    }
  }

  // Final PUL: unconflicted Delta + surviving conflicted ops + generated
  // insertions.
  obs::TraceSpan span(&lane_, "assemble");
  ScopedTimer timer(options_.metrics, "reconcile.assemble_seconds");
  Pul out = std::move(ir.merged);
  std::set<OpRef, RefLess> added;
  for (const Conflict& c : ir.conflicts) {
    std::vector<OpRef> members = c.ops;
    if (!c.symmetric()) members.push_back(c.overrider);
    for (const OpRef& r : members) {
      if (Excluded(r) || !added.insert(r).second) continue;
      XUPDATE_RETURN_IF_ERROR(
          out.AdoptOp(puls_[static_cast<size_t>(r.pul)]->forest(),
                      OpOf(r)));
    }
  }
  for (const std::vector<OpRef>& sources : generated_) {
    const UpdateOp& first = OpOf(sources[0]);
    UpdateOp gen;
    gen.kind = first.kind;
    gen.target = first.target;
    gen.target_label = first.target_label;
    for (const OpRef& r : sources) {
      const UpdateOp& src = OpOf(r);
      for (xml::NodeId root : src.param_trees) {
        XUPDATE_ASSIGN_OR_RETURN(
            xml::NodeId adopted,
            out.forest().AdoptSubtree(
                puls_[static_cast<size_t>(r.pul)]->forest(), root,
                /*preserve_ids=*/true, nullptr));
        gen.param_trees.push_back(adopted);
      }
    }
    XUPDATE_RETURN_IF_ERROR(out.AddOp(std::move(gen)));
  }
  XUPDATE_RETURN_IF_ERROR(out.CheckCompatible());
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("reconcile.excluded", excluded_.size());
    options_.metrics->AddCounter("reconcile.generated", generated_.size());
  }
  return out;
}

}  // namespace

Result<pul::Pul> Reconcile(const std::vector<const pul::Pul*>& puls,
                           ReconcileStats* stats) {
  return Reconcile(puls, ReconcileOptions(), stats);
}

Result<pul::Pul> Reconcile(const std::vector<const pul::Pul*>& puls,
                           const ReconcileOptions& options,
                           ReconcileStats* stats) {
  Reconciler reconciler(puls, options, stats);
  return reconciler.Run();
}

}  // namespace xupdate::core
