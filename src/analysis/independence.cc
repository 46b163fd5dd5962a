#include "analysis/independence.h"

#include <set>
#include <span>
#include <string>
#include <vector>

#include "label/bitstring.h"
#include "label/node_label.h"
#include "pul/pul_view.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using label::NodeLabel;
using pul::EffectiveKind;
using pul::IsType1Kind;
using pul::IsType3Kind;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::NodeId;

std::set<std::string_view> InsertedAttributeNames(const Pul& pul,
                                                  const UpdateOp& op) {
  std::set<std::string_view> names;
  for (NodeId r : op.param_trees) names.insert(pul.forest().name(r));
  return names;
}

// The type 1-4 rules on one cross-PUL op pair with a shared target.
// Returns the stable reason tag of the first rule that fires, nullptr if
// none can. Exact: with two PULs, Algorithm 1 reports a same-target
// conflict iff some cross-PUL pair passes one of these tests.
const char* SameTargetConflict(const Pul& pul_a, const UpdateOp& a,
                               const Pul& pul_b, const UpdateOp& b) {
  OpKind ea = EffectiveKind(a);
  OpKind eb = EffectiveKind(b);
  if (ea == eb && IsType1Kind(ea)) return "repeated-modification";
  if (ea == eb && IsType3Kind(ea)) return "insertion-order";
  if (ea == OpKind::kInsAttributes && eb == OpKind::kInsAttributes) {
    std::set<std::string_view> names_a = InsertedAttributeNames(pul_a, a);
    for (std::string_view name : InsertedAttributeNames(pul_b, b)) {
      if (names_a.count(name) != 0) return "repeated-attribute";
    }
  }
  // Two dels are no conflict.
  if (!(ea == OpKind::kDelete && eb == OpKind::kDelete) &&
      (pul::OverridesSameTarget(ea, eb) || pul::OverridesSameTarget(eb, ea))) {
    return "local-override";
  }
  return nullptr;
}

// A conflict type 5 witness: an overriding op (its sweep interval) and
// the listing index of an op of the other PUL inside its subtree.
struct NonLocalWitness {
  const pul::SweepInterval* over = nullptr;
  int inner = -1;
};

// Conflict type 5 in both directions, in one containment sweep over the
// ops of both PULs (sweep id and rank = 2 * listing index + PUL; every
// overriding op opens). found[p] is the witness with PUL p overriding:
// its first overrider in (start code, index) order that overrides an op
// of the other PUL whose target lies strictly inside its subtree, paired
// with the first such op in the same order. The containment test, not
// the sweep order, rules out equal starts. `sweep` is empty on entry;
// the witnesses point into it.
void FindNonLocalOverrides(const Pul& a, const Pul& b,
                           pul::ContainmentSweep* sweep,
                           NonLocalWitness found[2]) {
  const Pul* puls[2] = {&a, &b};
  for (int p = 0; p < 2; ++p) {
    const auto& ops = puls[p]->ops();
    for (size_t i = 0; i < ops.size(); ++i) {
      int32_t id = static_cast<int32_t>(2 * i) + p;
      sweep->Add(ops[i].target_label, static_cast<uint32_t>(id), id);
    }
  }
  // Sorted-array positions follow (start, index) order within one PUL,
  // so a direction's witness so far bounds the walk of every later inner
  // op: only an earlier overrider can replace it.
  sweep->Run([&](const pul::SweepInterval& interval,
                 std::span<const pul::SweepInterval* const> enclosing) {
    const int inner_pul = interval.id & 1;
    const Pul& overs = *puls[1 - inner_pul];
    const UpdateOp& inner =
        puls[inner_pul]->ops()[static_cast<size_t>(interval.id >> 1)];
    const bool opens = pul::OverridesSubtree(inner.kind);
    if (EffectiveKind(inner) == OpKind::kDelete) return opens;
    NonLocalWitness& witness = found[1 - inner_pul];
    for (const pul::SweepInterval* o : enclosing) {
      if (witness.over != nullptr && o >= witness.over) break;
      if ((o->id & 1) == inner_pul) continue;
      const UpdateOp& over = overs.ops()[static_cast<size_t>(o->id >> 1)];
      const NodeLabel& lab = over.target_label;
      if (!label::IsDescendantOf(inner.target_label, lab) ||
          !(inner.target_label.start < lab.end) ||
          !pul::OverridesInner(EffectiveKind(over), over.target,
                               inner.target_label)) {
        continue;
      }
      witness = {o, interval.id >> 1};
      break;
    }
    return opens;
  });
}

}  // namespace

std::string_view IndependenceVerdictName(IndependenceVerdict verdict) {
  switch (verdict) {
    case IndependenceVerdict::kIndependent:
      return "independent";
    case IndependenceVerdict::kMayConflict:
      return "may-conflict";
    case IndependenceVerdict::kMustConflict:
      return "must-conflict";
  }
  return "?";
}

IndependenceReport AnalyzeIndependence(const Pul& a, const Pul& b) {
  IndependenceReport report;

  // Without a label an op's structural position is unknown; nothing can
  // be ruled out (and Integrate would reject the PUL anyway).
  for (const Pul* pul : {&a, &b}) {
    const auto& ops = pul->ops();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].target_label.valid()) {
        report.verdict = IndependenceVerdict::kMayConflict;
        report.reason = "missing-label";
        (pul == &a ? report.op_a : report.op_b) = static_cast<int>(i);
        return report;
      }
    }
  }

  // Conflict classes 1-4 need a shared target node: a flat chained join
  // in place of the hash-of-vectors (chains keep listing order).
  pul::TargetIndex b_by_target;
  b_by_target.Reset(b.ops().size());
  for (size_t j = 0; j < b.ops().size(); ++j) {
    b_by_target.Append(b.ops()[j].target, static_cast<int32_t>(j));
  }
  for (size_t i = 0; i < a.ops().size(); ++i) {
    for (int32_t j = b_by_target.Head(a.ops()[i].target); j >= 0;
         j = b_by_target.Next(j)) {
      const char* reason = SameTargetConflict(
          a, a.ops()[i], b, b.ops()[static_cast<size_t>(j)]);
      if (reason != nullptr) {
        report.verdict = IndependenceVerdict::kMustConflict;
        report.op_a = static_cast<int>(i);
        report.op_b = j;
        report.reason = reason;
        return report;
      }
    }
  }

  // Conflict class 5 needs a target of one PUL strictly inside the
  // subtree of an overriding op of the other.
  pul::ContainmentSweep sweep;
  NonLocalWitness found[2];
  FindNonLocalOverrides(a, b, &sweep, found);
  for (int p = 0; p < 2; ++p) {
    if (found[p].over == nullptr) continue;
    int over = found[p].over->id >> 1;
    report.verdict = IndependenceVerdict::kMustConflict;
    report.op_a = p == 0 ? over : found[p].inner;
    report.op_b = p == 0 ? found[p].inner : over;
    report.reason = "non-local-override";
    return report;
  }

  // Fully labeled and no rule can fire on any related pair: the label
  // sets are disjoint per conflict class — provably no conflict.
  report.verdict = IndependenceVerdict::kIndependent;
  report.reason = "disjoint";
  return report;
}

}  // namespace xupdate::analysis
