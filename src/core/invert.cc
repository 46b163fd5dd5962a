#include "core/invert.h"

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pul/apply.h"
#include "pul/pul_view.h"

namespace xupdate::core {

namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

// Rejects PULs that the O-rules of Figure 2 would shrink: an overridden
// operation has no effect, so inverting it would corrupt the undo. The
// labels come from `labeling`, the document's own, so the same-target
// join and one containment sweep decide O1-O4 exactly.
Status CheckOIrreducible(const label::Labeling& labeling, const Pul& pul) {
  const std::vector<UpdateOp>& ops = pul.ops();
  pul::TargetIndex by_target;
  by_target.Reset(ops.size());
  // Each op is a sweep query; a repN/del/repC also opens its subtree,
  // after every query of its start, so only strict ancestors enclose.
  pul::ContainmentSweep sweep;
  for (size_t i = 0; i < ops.size(); ++i) {
    const NodeLabel* label = labeling.Find(ops[i].target);
    if (label == nullptr) {
      return Status::NotApplicable("target node " +
                                   std::to_string(ops[i].target) +
                                   " not in document");
    }
    auto id = static_cast<int32_t>(i);
    by_target.Append(ops[i].target, id);
    sweep.Add(*label, static_cast<uint32_t>(i), id);
    if (pul::OverridesSubtree(ops[i].kind)) {
      sweep.Add(*label,
                pul::ContainmentSweep::kOpeningRank | static_cast<uint32_t>(i),
                id);
    }
  }
  // O1/O2. A target holds at most one repN and one repC, and a second
  // del is overridden, so each overrider's walk is short.
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!pul::OverridesSubtree(ops[i].kind)) continue;
    for (int32_t j = by_target.Head(ops[i].target); j >= 0;
         j = by_target.Next(j)) {
      if (static_cast<size_t>(j) != i &&
          pul::OverridesSameTarget(ops[i].kind,
                                   ops[static_cast<size_t>(j)].kind)) {
        return Status::InvalidArgument(
            "PUL is O-reducible (same-target override on node " +
            std::to_string(ops[i].target) + "); reduce before inverting");
      }
    }
  }
  // O3/O4: no op may target a node strictly inside the subtree of a
  // repN/del target, or of a repC target other than its attributes.
  const UpdateOp* overrider = nullptr;
  sweep.Run([&](const pul::SweepInterval& interval,
                std::span<const pul::SweepInterval* const> enclosing) {
    if (pul::ContainmentSweep::IsOpening(interval)) return true;
    if (overrider != nullptr) return false;
    for (const pul::SweepInterval* open : enclosing) {
      const UpdateOp& over = ops[static_cast<size_t>(open->id)];
      if (pul::OverridesInner(over.kind, over.target, *interval.label)) {
        overrider = &over;
        break;
      }
    }
    return false;
  });
  if (overrider != nullptr) {
    return Status::InvalidArgument(
        std::string("PUL is O-reducible (operation under ") +
        (overrider->kind == OpKind::kReplaceChildren ? "repC target "
                                                     : "removed node ") +
        std::to_string(overrider->target) + "); reduce before inverting");
  }
  return Status::OK();
}

class Inverter {
 public:
  Inverter(const Document& doc, const label::Labeling& labeling,
           const Pul& pul)
      : doc_(doc), labeling_(labeling), pul_(pul) {}

  Result<Pul> Run();

 private:
  // Saves a copy (original ids) of the subtree at `node` into the
  // inverse PUL's forest.
  Result<NodeId> Save(NodeId node) {
    return out_.forest().AdoptSubtree(doc_, node, /*preserve_ids=*/true,
                                      nullptr);
  }

  Status AddInverseOp(OpKind kind, NodeId target,
                      std::vector<NodeId> trees, std::string arg) {
    UpdateOp op;
    op.kind = kind;
    op.target = target;
    // Surviving original nodes keep their labels so the inverse PUL can
    // itself be reasoned about; targets created by the forward PUL have
    // none.
    if (const NodeLabel* lab = labeling_.Find(target)) {
      op.target_label = *lab;
    }
    op.param_trees = std::move(trees);
    op.param_string = std::move(arg);
    return out_.AddOp(std::move(op));
  }

  // Re-insertion anchor for a removed child `v`: the nearest left
  // sibling that survives the forward PUL — or, when the neighbor was
  // replaced (repN), the last root of its replacement. Falls back to
  // insFirst under the parent.
  struct Anchor {
    OpKind kind = OpKind::kInsFirst;
    NodeId target = kInvalidNode;
  };
  Anchor AnchorFor(NodeId v) const {
    NodeId parent = doc_.parent(v);
    const auto& siblings = doc_.children(parent);
    int index = doc_.ChildIndex(v);
    for (int i = index - 1; i >= 0; --i) {
      NodeId s = siblings[static_cast<size_t>(i)];
      auto it = replacement_tail_.find(s);
      if (it != replacement_tail_.end()) {
        if (it->second != kInvalidNode) {
          return {OpKind::kInsAfter, it->second};
        }
        continue;  // deleted (or replaced by nothing): keep scanning
      }
      return {OpKind::kInsAfter, s};
    }
    return {OpKind::kInsFirst, parent};
  }

  const Document& doc_;
  const label::Labeling& labeling_;
  const Pul& pul_;
  Pul out_;
  std::unordered_set<NodeId> removed_;
  // Removed node -> last replacement root (kInvalidNode if none).
  std::unordered_map<NodeId, NodeId> replacement_tail_;
};

Result<Pul> Inverter::Run() {
  XUPDATE_RETURN_IF_ERROR(pul_.CheckCompatible());
  XUPDATE_RETURN_IF_ERROR(CheckOIrreducible(labeling_, pul_));

  // First pass: removal bookkeeping for anchor computation.
  for (const UpdateOp& op : pul_.ops()) {
    if (op.kind == OpKind::kDelete) {
      removed_.insert(op.target);
      replacement_tail_[op.target] = kInvalidNode;
    } else if (op.kind == OpKind::kReplaceNode) {
      removed_.insert(op.target);
      replacement_tail_[op.target] =
          op.param_trees.empty() ? kInvalidNode : op.param_trees.back();
    }
  }

  // Deletions grouped per anchor so restored sibling order is exact:
  // map anchor -> removed nodes in document order.
  struct Group {
    Inverter::Anchor anchor;
    std::vector<NodeId> nodes;  // document order
  };
  std::map<std::pair<int, NodeId>, Group> restore_children;
  std::unordered_map<NodeId, std::vector<NodeId>> restore_attributes;

  for (const UpdateOp& op : pul_.ops()) {
    if (!doc_.Exists(op.target)) {
      return Status::NotApplicable("target node " +
                                   std::to_string(op.target) +
                                   " not in document");
    }
    switch (op.kind) {
      case OpKind::kInsBefore:
      case OpKind::kInsAfter:
      case OpKind::kInsFirst:
      case OpKind::kInsLast:
      case OpKind::kInsInto:
      case OpKind::kInsAttributes:
        // Undo an insertion by deleting the inserted roots (they keep
        // their producer-assigned ids in the updated document).
        for (NodeId root : op.param_trees) {
          XUPDATE_RETURN_IF_ERROR(
              AddInverseOp(OpKind::kDelete, root, {}, ""));
        }
        break;
      case OpKind::kReplaceValue: {
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(
            OpKind::kReplaceValue, op.target, {}, doc_.value(op.target)));
        break;
      }
      case OpKind::kRename: {
        XUPDATE_RETURN_IF_ERROR(
            AddInverseOp(OpKind::kRename, op.target, {},
                           std::string(doc_.name(op.target))));
        break;
      }
      case OpKind::kReplaceChildren: {
        std::vector<NodeId> saved;
        for (NodeId child : doc_.children(op.target)) {
          XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(child));
          saved.push_back(copy);
        }
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(OpKind::kReplaceChildren,
                                               op.target, std::move(saved),
                                               ""));
        break;
      }
      case OpKind::kReplaceNode: {
        XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(op.target));
        if (op.param_trees.empty()) {
          // Behaves like del: schedule a positional re-insertion.
          if (doc_.type(op.target) == NodeType::kAttribute) {
            restore_attributes[doc_.parent(op.target)].push_back(copy);
          } else if (doc_.parent(op.target) == kInvalidNode) {
            return Status::InvalidArgument(
                "cannot invert removal of a parentless node");
          } else {
            Anchor anchor = AnchorFor(op.target);
            auto key = std::make_pair(static_cast<int>(anchor.kind),
                                      anchor.target);
            restore_children[key].anchor = anchor;
            restore_children[key].nodes.push_back(copy);
          }
          break;
        }
        // repN(first replacement -> saved subtree), delete the rest.
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(
            OpKind::kReplaceNode, op.param_trees.front(), {copy}, ""));
        for (size_t i = 1; i < op.param_trees.size(); ++i) {
          XUPDATE_RETURN_IF_ERROR(
              AddInverseOp(OpKind::kDelete, op.param_trees[i], {}, ""));
        }
        break;
      }
      case OpKind::kDelete: {
        XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(op.target));
        if (doc_.type(op.target) == NodeType::kAttribute) {
          restore_attributes[doc_.parent(op.target)].push_back(copy);
          break;
        }
        if (doc_.parent(op.target) == kInvalidNode) {
          return Status::InvalidArgument(
              "cannot invert deletion of a parentless node");
        }
        Anchor anchor = AnchorFor(op.target);
        auto key =
            std::make_pair(static_cast<int>(anchor.kind), anchor.target);
        restore_children[key].anchor = anchor;
        restore_children[key].nodes.push_back(copy);
        break;
      }
    }
  }

  // Emit grouped re-insertions. Saved copies preserve ids, and groups
  // collect nodes in PUL order — normalize to document order of the
  // originals (copy ids equal original ids).
  for (auto& [key, group] : restore_children) {
    std::vector<NodeId>& nodes = group.nodes;
    std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
      return doc_.Compare(a, b) < 0;
    });
    XUPDATE_RETURN_IF_ERROR(AddInverseOp(group.anchor.kind,
                                           group.anchor.target,
                                           std::move(nodes), ""));
  }
  for (auto& [parent, attrs] : restore_attributes) {
    XUPDATE_RETURN_IF_ERROR(
        AddInverseOp(OpKind::kInsAttributes, parent, std::move(attrs),
                       ""));
  }
  XUPDATE_RETURN_IF_ERROR(out_.CheckCompatible());
  return std::move(out_);
}

}  // namespace

Result<pul::Pul> Invert(const xml::Document& doc,
                        const label::Labeling& labeling,
                        const pul::Pul& pul) {
  Inverter inverter(doc, labeling, pul);
  return inverter.Run();
}

}  // namespace xupdate::core
