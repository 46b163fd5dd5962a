#include "analysis/predict.h"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "pul/pul_view.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::NodeId;

// Most ops the Figure 2 fixpoint can keep on one target, from the kind
// counts of the ops initially aimed at it. Every merge result inherits
// the (target, kind) of one constituent, so the fixpoint constraints
// (no same-target repN/del + overridable pair, no repN + sibling
// insertion, no two same-kind insertions, no repC + child insertion,
// no insInto + insFirst/insLast) bound the survivors from the initial
// counts alone.
size_t GroupUpperBound(const std::array<size_t, pul::kNumOpKinds>& c) {
  auto count = [&c](OpKind k) { return c[static_cast<size_t>(k)]; };
  size_t before = count(OpKind::kInsBefore) > 0 ? 1 : 0;
  size_t after = count(OpKind::kInsAfter) > 0 ? 1 : 0;
  if (count(OpKind::kReplaceNode) > 0) return count(OpKind::kReplaceNode);
  if (count(OpKind::kDelete) > 0) return 1 + before + after;
  size_t total = count(OpKind::kRename) + count(OpKind::kReplaceValue) +
                 count(OpKind::kReplaceChildren);
  if (count(OpKind::kInsAttributes) > 0) total += 1;
  if (count(OpKind::kReplaceChildren) == 0) {
    size_t families = (count(OpKind::kInsFirst) > 0 ? 1 : 0) +
                      (count(OpKind::kInsLast) > 0 ? 1 : 0) +
                      (count(OpKind::kInsInto) > 0 ? 1 : 0);
    if (count(OpKind::kInsInto) > 0 &&
        (count(OpKind::kInsFirst) > 0 || count(OpKind::kInsLast) > 0)) {
      families -= 1;  // I6/I7 fold the insInto family into first/last
    }
    total += families;
  }
  return total + before + after;
}

}  // namespace

// The first pass of Reducer::SweepOverrides over the whole input.
std::vector<char> SweptOps(const Pul& pul) {
  const std::vector<UpdateOp>& ops = pul.ops();
  std::vector<char> swept(ops.size(), 0);
  pul::ContainmentSweep sweep;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].target_label.valid()) continue;
    sweep.AddOverrideEntries(ops[i], static_cast<uint32_t>(i),
                             static_cast<int32_t>(i));
  }
  sweep.Run([&](const pul::SweepInterval& interval,
                std::span<const pul::SweepInterval* const> enclosing) {
    if (pul::ContainmentSweep::IsOpening(interval)) return true;
    const UpdateOp& op = ops[static_cast<size_t>(interval.id)];
    for (const pul::SweepInterval* k : enclosing) {
      const UpdateOp& killer = ops[static_cast<size_t>(k->id)];
      if (killer.target != op.target &&
          pul::OverridesInner(killer.kind, killer.target, op.target_label)) {
        swept[static_cast<size_t>(interval.id)] = 1;
        break;
      }
    }
    return false;
  });
  return swept;
}

ReductionPrediction PredictReduction(const Pul& pul) {
  ReductionPrediction p;
  const std::vector<UpdateOp>& ops = pul.ops();
  p.input_ops = ops.size();
  for (const UpdateOp& op : ops) {
    if (op.kind == OpKind::kInsInto) {
      p.has_ins_into = true;
      break;
    }
  }
  if (ops.empty()) {
    p.no_rule_can_fire = true;
    return p;
  }
  // Without a related pair (every component a singleton) the fixpoint
  // is empty and Reduce cannot change the operation list.
  p.no_rule_can_fire =
      pul::PartitionByTargetSubtree(ops).size() == ops.size();
  if (p.no_rule_can_fire) {
    p.surviving_upper_bound = ops.size();
    return p;
  }

  std::vector<char> swept = SweptOps(pul);
  std::unordered_map<NodeId, std::array<size_t, pul::kNumOpKinds>> groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (swept[i] != 0) continue;
    auto [it, inserted] = groups.emplace(
        ops[i].target, std::array<size_t, pul::kNumOpKinds>{});
    ++it->second[static_cast<size_t>(ops[i].kind)];
  }
  size_t bound = 0;
  for (const auto& [target, counts] : groups) {
    bound += GroupUpperBound(counts);
  }
  p.surviving_upper_bound = std::min(bound, ops.size());
  p.guaranteed_kills = p.input_ops - p.surviving_upper_bound;
  return p;
}

}  // namespace xupdate::analysis
