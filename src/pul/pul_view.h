#ifndef XUPDATE_PUL_PUL_VIEW_H_
#define XUPDATE_PUL_PUL_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "label/bitstring.h"
#include "pul/update_op.h"
#include "xml/node.h"

// Shared index layer for the reasoning operators (reduce, integrate,
// aggregate) and the static analyses. Their hot loops are document-order
// sweeps over containment intervals and joins over operations that share
// a target; this header holds the one interval sweep, the one subtree
// override rule those sweeps apply, the one same-target override rule
// the joins apply, and the flat target join. The loops
// touch order keys, kinds and target ids; labels, parameter trees and
// strings stay in the owning Pul and are never copied per phase.

namespace xupdate::pul {

// Insertion-ordered shared-target join: target node id -> chain of op
// indices, in append order. Replaces unordered_map<NodeId, vector<int>>
// on the engines' hot paths: one flat `next` array plus an open-addressed
// power-of-two bucket table, no per-target heap vectors and no rehash
// churn. Chains preserve append order (head + tail per bucket), which the
// engines rely on for deterministic partner choice.
class TargetIndex {
 public:
  TargetIndex() = default;

  // Drops all chains and reserves room for ~expected_ops appends.
  void Reset(size_t expected_ops);

  // Appends op `index` to the chain of `target` (end of chain).
  void Append(xml::NodeId target, int32_t index);

  // First op index on the chain of `target`, -1 if none.
  int32_t Head(xml::NodeId target) const;

  // Next op on the same chain after `index`, -1 at the end.
  int32_t Next(int32_t index) const {
    return index < static_cast<int32_t>(next_.size())
               ? next_[static_cast<size_t>(index)]
               : -1;
  }

 private:
  struct Bucket {
    xml::NodeId key = xml::kInvalidNode;
    int32_t head = -1;
    int32_t tail = -1;
  };

  // splitmix64 finalizer; NodeIds are dense low integers, so the mixer
  // matters for the power-of-two mask.
  static uint64_t Hash(xml::NodeId id) {
    uint64_t x = id + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Bucket* FindBucket(xml::NodeId target);
  const Bucket* FindBucketConst(xml::NodeId target) const;
  void Grow();

  std::vector<Bucket> buckets_;  // open addressing, power-of-two size
  std::vector<int32_t> next_;    // per op index: next on the same chain
  size_t used_buckets_ = 0;
  // kInvalidNode cannot live in the table (it is the empty-bucket
  // marker); ops should never target it, but degrade gracefully.
  Bucket invalid_chain_;
};

// Partitions the operation indices into the connected components of the
// "some Figure 2 rule or override sweep can relate these operations"
// relation, decided purely on containment labels:
//   * same target node;
//   * target's parent / immediate left sibling is another op's target
//     (the I10-I20 neighbor rules, in both lookup directions);
//   * the target interval nests inside another op's target interval
//     (the O3/O4 ancestor override sweep).
// The components are closed under rule application: a merged operation
// keeps the target (and label) of one of its constituents. Components
// come in order of their first operation, each in listing order.
std::vector<std::vector<int>> PartitionByTargetSubtree(
    const std::vector<UpdateOp>& ops);

// repN with an empty replacement list behaves exactly like del
// (footnote 3 of the paper); the conflict rules treat it as del.
inline OpKind EffectiveKind(const UpdateOp& op) {
  if (op.kind == OpKind::kReplaceNode && op.param_trees.empty()) {
    return OpKind::kDelete;
  }
  return op.kind;
}

// Kinds two same-target ops of which conflict as a repeated modification
// (conflict type 1) or over their insertion order (type 3).
inline bool IsType1Kind(OpKind kind) {
  return kind == OpKind::kRename || kind == OpKind::kReplaceNode ||
         kind == OpKind::kReplaceChildren || kind == OpKind::kReplaceValue;
}
inline bool IsType3Kind(OpKind kind) {
  return kind == OpKind::kInsBefore || kind == OpKind::kInsAfter ||
         kind == OpKind::kInsFirst || kind == OpKind::kInsLast;
}

// Whether an op of `overrider` kind makes an op of `other` kind on the
// same target ineffective (rules O1/O2, conflict type 4): repN and del
// override everything but the sibling insertions and repN, repC
// overrides the child insertions, so only the OverridesSubtree kinds
// override anything. Callers keep their own exemptions: an op never
// overrides itself, and two dels are no conflict.
inline bool OverridesSameTarget(OpKind overrider, OpKind other) {
  switch (overrider) {
    case OpKind::kReplaceNode:
    case OpKind::kDelete:
      return other != OpKind::kInsBefore && other != OpKind::kInsAfter &&
             other != OpKind::kReplaceNode;
    case OpKind::kReplaceChildren:
      return other == OpKind::kInsFirst || other == OpKind::kInsInto ||
             other == OpKind::kInsLast;
    default:
      return false;
  }
}

// Kinds whose target subtree overrides the operations inside it (rules
// O3/O4, conflict type 5): repN and del remove the whole subtree, repC
// replaces the target's children.
bool OverridesSubtree(OpKind kind);

// Whether an op of `kind` on `target` overrides an op on a node strictly
// inside that target's subtree, given the inner node's parent and type.
// The attributes of a repC target survive: repC replaces only the
// children. Callers decide containment (usually by a ContainmentSweep)
// and their own extra exemptions (same target, inner deletes).
bool OverridesInner(OpKind kind, xml::NodeId target, xml::NodeId inner_parent,
                    xml::NodeType inner_type);
inline bool OverridesInner(OpKind kind, xml::NodeId target,
                           const label::NodeLabel& inner) {
  return OverridesInner(kind, target, inner.parent, inner.type);
}

// One labeled interval of a ContainmentSweep. The order keys are the
// codes' label::BitString::PrefixKey64 prefixes, so comparisons touch
// the codes only on key ties; the end key is filled in when the interval
// opens, the only time its end is compared.
struct SweepInterval {
  uint64_t start_key;
  uint64_t end_key;
  const label::NodeLabel* label;
  uint32_t rank;  // the caller's tie-break among equal start codes
  int32_t id;     // the caller's payload, usually an op index
};

// Document-order stack sweep over containment intervals, the one
// nesting walk behind the override rules, the reduce partition, the
// integrate containment tree and the static analyses. Intervals are
// visited in (start code, rank) order; before each visit the open
// intervals whose end lies before its start are popped, and the visitor
// sees the rest, outermost first, and decides whether the interval
// opens (is pushed). Only pushed intervals can enclose later ones.
//
// Equal start codes are not assumed to mean one node (labels come from
// untrusted PUL input): callers choose their tie rule through the ranks.
// An equal-start interval visited earlier and pushed encloses a later
// one; an override sweep adds each op once as a query and, if it
// overrides, once more with kOpeningRank set, so at one start code every
// query comes before any opening and only strictly earlier starts
// enclose. Ranks must be distinct.
//
// The object owns its scratch: Clear keeps the storage, so a caller that
// sweeps repeatedly stops allocating after the first run. Not
// thread-safe; the labels must outlive the run.
class ContainmentSweep {
 public:
  // Rank bit of an opening entry in an override sweep (see above); the
  // ranks below it hold op indices, which fit in 31 bits like the ids.
  static constexpr uint32_t kOpeningRank = uint32_t{1} << 31;
  static bool IsOpening(const SweepInterval& interval) {
    return interval.rank >= kOpeningRank;
  }

  void Clear() { intervals_.clear(); }

  void Add(const label::NodeLabel& label, uint32_t rank, int32_t id) {
    intervals_.push_back({label.start.PrefixKey64(), 0, &label, rank, id});
  }

  // Adds op `id` to an override sweep: a query at `rank` and, for an
  // overriding kind, an opening entry after every query of its start.
  void AddOverrideEntries(const UpdateOp& op, uint32_t rank, int32_t id) {
    Add(op.target_label, rank, id);
    if (OverridesSubtree(op.kind)) {
      Add(op.target_label, kOpeningRank | rank, id);
    }
  }

  // visit(const SweepInterval& interval,
  //       std::span<const SweepInterval* const> enclosing) -> bool push.
  // Pointers into the sorted interval array follow the visiting order,
  // so visitors may compare them to rank intervals.
  template <typename Visit>
  void Run(Visit&& visit) {
    Sort();
    open_.clear();
    for (SweepInterval& interval : intervals_) {
      while (!open_.empty() &&
             label::BitString::CompareKeyed(
                 open_.back()->end_key, open_.back()->label->end,
                 interval.start_key, interval.label->start) < 0) {
        open_.pop_back();
      }
      if (visit(interval, std::span<const SweepInterval* const>(open_))) {
        interval.end_key = interval.label->end.PrefixKey64();
        open_.push_back(&interval);
      }
    }
  }

 private:
  void Sort();

  std::vector<SweepInterval> intervals_;
  std::vector<SweepInterval> scratch_;  // radix sort buffer
  std::vector<const SweepInterval*> open_;
};

}  // namespace xupdate::pul

#endif  // XUPDATE_PUL_PUL_VIEW_H_
