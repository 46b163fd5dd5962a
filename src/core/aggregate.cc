#include "core/aggregate.h"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pul/pul_view.h"
#include "pul/update_op.h"

namespace xupdate::core {

namespace {

using pul::OpClass;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;

class Aggregator {
 public:
  Aggregator(const std::vector<const Pul*>& puls,
             const AggregateOptions& options)
      : puls_(puls), options_(options) {}

  Result<Pul> Run(AggregateStats* stats);

 private:
  xml::Document& forest() { return acc_.forest(); }

  // Registers ownership of a freshly adopted parameter tree.
  void Own(NodeId root, int op_index) { owner_[root] = op_index; }

  // Adopts one parameter tree of `src` into the aggregate forest and
  // remembers every node id it brings in (the "new" side of Algorithm
  // 2's hash table, kept even after later removals so ops on erased new
  // nodes are recognized).
  Result<NodeId> Adopt(const Pul& src, NodeId root) {
    XUPDATE_ASSIGN_OR_RETURN(
        NodeId adopted,
        forest().AdoptSubtree(src.forest(), root, /*preserve_ids=*/true,
                              nullptr));
    forest().Visit(adopted, [&](NodeId v) {
      ever_new_.insert(v);
      return true;
    });
    return adopted;
  }

  Result<std::vector<NodeId>> AdoptAll(const Pul& src,
                                       const std::vector<NodeId>& roots) {
    std::vector<NodeId> out;
    out.reserve(roots.size());
    for (NodeId r : roots) {
      XUPDATE_ASSIGN_OR_RETURN(NodeId a, Adopt(src, r));
      out.push_back(a);
    }
    return out;
  }

  // Walks up the forest to the detached root of `node`.
  NodeId RootOf(NodeId node) const {
    NodeId cur = node;
    while (acc_.forest().parent(cur) != kInvalidNode) {
      cur = acc_.forest().parent(cur);
    }
    return cur;
  }

  int AppendOp(UpdateOp op, int source_k) {
    int index = static_cast<int>(ops_.size());
    for (NodeId r : op.param_trees) Own(r, index);
    by_target_.Append(op.target, index);
    source_.push_back(source_k);
    alive_.push_back(1);
    ops_.push_back(std::move(op));
    return index;
  }

  // Finds an alive aggregate op with `kind` on `target`, else -1.
  int FindOp(NodeId target, OpKind kind) const {
    for (int32_t i = by_target_.Head(target); i >= 0; i = by_target_.Next(i)) {
      if (alive_[static_cast<size_t>(i)] && ops_[static_cast<size_t>(i)].kind == kind) {
        return i;
      }
    }
    return -1;
  }

  void Kill(int i) { alive_[static_cast<size_t>(i)] = 0; }

  // Stable trace id of an accumulated aggregate slot.
  static std::string AggId(int i) { return "agg#" + std::to_string(i); }

  // Rule D6 and friends: `op` (from PUL `k`) targets a node inserted by
  // an earlier PUL; fold its effect into the carrying parameter tree.
  Status FoldIntoTree(const Pul& src, const UpdateOp& op);
  // Splices `trees` into the param list of `owner_op` around root `r`.
  Status SpliceAtRoot(int owner_op, NodeId r, std::vector<NodeId> trees,
                      int where);  // where: -1 before, 0 replace, +1 after
  // Old-node target: cumulate with existing aggregate ops (A/B/C rules).
  Status Accumulate(const Pul& src, const UpdateOp& op, int k);

  const std::vector<const Pul*>& puls_;
  const AggregateOptions& options_;
  obs::TraceLane lane_;
  std::string cur_ref_;  // trace id of the op being processed
  Pul acc_;
  std::vector<UpdateOp> ops_;
  std::vector<char> alive_;
  std::vector<int> source_;  // PUL index that last produced/merged the op
  pul::TargetIndex by_target_;  // chains keep append order, as FindOp needs
  std::unordered_map<NodeId, int> owner_;  // param tree root -> op index
  std::unordered_set<NodeId> ever_new_;    // ids ever inserted by the seq
  size_t folded_ = 0;
};

Status Aggregator::SpliceAtRoot(int owner_op, NodeId r,
                                std::vector<NodeId> trees, int where) {
  UpdateOp& op = ops_[static_cast<size_t>(owner_op)];
  auto it = std::find(op.param_trees.begin(), op.param_trees.end(), r);
  if (it == op.param_trees.end()) {
    return Status::Internal("owned root missing from parameter list");
  }
  size_t pos = static_cast<size_t>(it - op.param_trees.begin());
  if (where == 0) {
    // Replace r with trees.
    op.param_trees.erase(op.param_trees.begin() +
                         static_cast<ptrdiff_t>(pos));
    owner_.erase(r);
    XUPDATE_RETURN_IF_ERROR(forest().DeleteSubtree(r));
  } else if (where > 0) {
    pos += 1;
  }
  op.param_trees.insert(op.param_trees.begin() + static_cast<ptrdiff_t>(pos),
                        trees.begin(), trees.end());
  for (NodeId t : trees) Own(t, owner_op);
  return Status::OK();
}

Status Aggregator::FoldIntoTree(const Pul& src, const UpdateOp& op) {
  ++folded_;
  NodeId v = op.target;
  NodeId root = RootOf(v);
  auto owner_it = owner_.find(root);
  if (owner_it == owner_.end()) {
    return Status::Internal("new node's tree has no owning operation");
  }
  int owner_op = owner_it->second;
  if (lane_.enabled()) {
    lane_.Emit(obs::EventKind::kRuleFired, "D6", {cur_ref_},
               AggId(owner_op),
               std::string(pul::OpKindName(op.kind)) +
                   " applied inside the carrying parameter tree");
  }
  bool is_root = root == v;
  XUPDATE_ASSIGN_OR_RETURN(std::vector<NodeId> trees,
                           AdoptAll(src, op.param_trees));
  switch (op.kind) {
    case OpKind::kInsBefore:
    case OpKind::kInsAfter: {
      int where = op.kind == OpKind::kInsBefore ? -1 : +1;
      if (is_root) {
        return SpliceAtRoot(owner_op, v, std::move(trees), where);
      }
      if (op.kind == OpKind::kInsBefore) {
        for (NodeId t : trees) {
          XUPDATE_RETURN_IF_ERROR(forest().InsertBefore(v, t));
        }
      } else {
        for (auto it = trees.rbegin(); it != trees.rend(); ++it) {
          XUPDATE_RETURN_IF_ERROR(forest().InsertAfter(v, *it));
        }
      }
      return Status::OK();
    }
    case OpKind::kInsFirst:
      for (auto it = trees.rbegin(); it != trees.rend(); ++it) {
        XUPDATE_RETURN_IF_ERROR(forest().PrependChild(v, *it));
      }
      return Status::OK();
    case OpKind::kInsLast:
    case OpKind::kInsInto:
      // insInto: any position is substitutable; append.
      for (NodeId t : trees) {
        XUPDATE_RETURN_IF_ERROR(forest().AppendChild(v, t));
      }
      return Status::OK();
    case OpKind::kInsAttributes:
      for (NodeId t : trees) {
        XUPDATE_RETURN_IF_ERROR(forest().AddAttribute(v, t));
      }
      return Status::OK();
    case OpKind::kDelete:
      if (is_root) {
        return SpliceAtRoot(owner_op, v, {}, 0);
      }
      return forest().DeleteSubtree(v);
    case OpKind::kReplaceNode:
      if (is_root) {
        return SpliceAtRoot(owner_op, v, std::move(trees), 0);
      }
      return forest().ReplaceNode(v, trees);
    case OpKind::kReplaceChildren:
      return forest().ReplaceChildren(v, trees);
    case OpKind::kReplaceValue:
      return forest().SetValue(v, op.param_string);
    case OpKind::kRename:
      return forest().Rename(v, op.param_string);
  }
  return Status::Internal("unknown op kind in FoldIntoTree");
}

Status Aggregator::Accumulate(const Pul& src, const UpdateOp& op, int k) {
  // B3: a later ren/repV/repC overrides an earlier one on the same node.
  if (op.kind == OpKind::kRename || op.kind == OpKind::kReplaceValue ||
      op.kind == OpKind::kReplaceChildren) {
    int prev = FindOp(op.target, op.kind);
    if (prev >= 0 && source_[static_cast<size_t>(prev)] != k) {
      if (lane_.enabled()) {
        lane_.Emit(obs::EventKind::kRuleFired, "B3",
                   {cur_ref_, AggId(prev)}, {},
                   "later modification overrides the earlier one");
      }
      Kill(prev);
    }
  }
  // Generalized repC: child insertions arriving after a repC on the same
  // node extend the repC's replacement list instead of being wiped by it
  // (merged repC runs in stage 4, after stage-1/2 insertions).
  if (op.kind == OpKind::kInsFirst || op.kind == OpKind::kInsLast ||
      op.kind == OpKind::kInsInto) {
    int repc = FindOp(op.target, OpKind::kReplaceChildren);
    if (repc >= 0 && source_[static_cast<size_t>(repc)] != k) {
      XUPDATE_ASSIGN_OR_RETURN(std::vector<NodeId> trees,
                               AdoptAll(src, op.param_trees));
      UpdateOp& host = ops_[static_cast<size_t>(repc)];
      if (op.kind == OpKind::kInsFirst) {
        host.param_trees.insert(host.param_trees.begin(), trees.begin(),
                                trees.end());
      } else {
        host.param_trees.insert(host.param_trees.end(), trees.begin(),
                                trees.end());
      }
      for (NodeId t : trees) Own(t, repc);
      ++folded_;
      if (lane_.enabled()) {
        lane_.Emit(obs::EventKind::kRuleFired, "C-repC", {cur_ref_},
                   AggId(repc),
                   "insertion folded into the repC replacement list");
      }
      return Status::OK();
    }
  }
  // A1/A2/C4/C5: cumulate same-kind insertions on the same node.
  if (pul::ClassOf(op.kind) == OpClass::kInsertion) {
    int prev = FindOp(op.target, op.kind);
    if (prev >= 0) {
      XUPDATE_ASSIGN_OR_RETURN(std::vector<NodeId> trees,
                               AdoptAll(src, op.param_trees));
      UpdateOp& host = ops_[static_cast<size_t>(prev)];
      bool same_pul = source_[static_cast<size_t>(prev)] == k;
      if (lane_.enabled()) {
        lane_.Emit(obs::EventKind::kRuleFired, same_pul ? "A1/A2" : "C4/C5",
                   {cur_ref_}, AggId(prev),
                   std::string(pul::OpKindName(op.kind)) + " cumulated");
      }
      bool later_first;
      if (same_pul) {
        // A1/A2: within one PUL any relative order is obtainable.
        later_first = false;
      } else {
        // C4/C5: the later PUL's trees land closer to the target for
        // insAfter/insFirst, farther for insBefore/insLast.
        later_first = op.kind == OpKind::kInsAfter ||
                      op.kind == OpKind::kInsFirst;
      }
      if (later_first) {
        host.param_trees.insert(host.param_trees.begin(), trees.begin(),
                                trees.end());
      } else {
        host.param_trees.insert(host.param_trees.end(), trees.begin(),
                                trees.end());
      }
      for (NodeId t : trees) Own(t, prev);
      source_[static_cast<size_t>(prev)] = k;
      return Status::OK();
    }
  }
  // No interaction: adopt parameters and append.
  UpdateOp copy = op;
  XUPDATE_ASSIGN_OR_RETURN(copy.param_trees, AdoptAll(src, op.param_trees));
  int index = AppendOp(std::move(copy), k);
  if (lane_.enabled()) {
    lane_.Emit(obs::EventKind::kNote, "append", {cur_ref_}, AggId(index));
  }
  return Status::OK();
}

Result<Pul> Aggregator::Run(AggregateStats* stats) {
  Metrics* metrics = options_.metrics;
  obs::Tracer* tracer = options_.tracer;
  if (metrics) metrics->AddCounter("aggregate.calls");
  if (tracer != nullptr) {
    lane_ = tracer->Lane(tracer->NextPhase(), 0, "aggregate");
    for (size_t k = 0; k < puls_.size(); ++k) {
      std::vector<std::string> ids;
      ids.reserve(puls_[k]->size());
      for (size_t o = 0; o < puls_[k]->size(); ++o) {
        ids.push_back(obs::RefId(k, o));
      }
      lane_.Emit(obs::EventKind::kNote, "input", std::move(ids), {},
                 std::string("P").append(std::to_string(k)));
    }
  }

  size_t input_ops = 0;
  {
    obs::TraceSpan span(&lane_, "accumulate");
    ScopedTimer timer(metrics, "aggregate.accumulate_seconds");
    size_t total_ops = 0;
    for (const Pul* src : puls_) total_ops += src->size();
    by_target_.Reset(total_ops);
    // Stage buckets reused across PULs; one pass per PUL replaces a
    // stable_sort (stages are 1..5 and within-stage order is listing
    // order either way).
    std::array<std::vector<const UpdateOp*>, 5> stage_buckets;
    std::vector<const UpdateOp*> staged;
    for (size_t k = 0; k < puls_.size(); ++k) {
      const Pul& src = *puls_[k];
      XUPDATE_RETURN_IF_ERROR(src.CheckCompatible());
      input_ops += src.size();
      // Folding applies effects immediately, so within one PUL the
      // five-stage precedence must be respected: an insertion next to a
      // node deleted by the same PUL still happens (stage 2 < stage 5).
      for (auto& bucket : stage_buckets) bucket.clear();
      for (const UpdateOp& op : src.ops()) {
        stage_buckets[static_cast<size_t>(pul::StageOf(op.kind) - 1)]
            .push_back(&op);
      }
      staged.clear();
      staged.reserve(src.size());
      for (const auto& bucket : stage_buckets) {
        staged.insert(staged.end(), bucket.begin(), bucket.end());
      }
      for (const UpdateOp* op : staged) {
        if (lane_.enabled()) {
          cur_ref_ = obs::RefId(k, op - src.ops().data());
        }
        if (forest().Exists(op->target)) {
          // Target inserted by an earlier PUL of the sequence: rule D6.
          XUPDATE_RETURN_IF_ERROR(FoldIntoTree(src, *op));
        } else if (ever_new_.count(op->target) != 0) {
          // The target was inserted by this sequence but an overriding
          // operation already erased it; the operation is silently
          // complete (the five-stage semantics would skip it too).
          ++folded_;
          if (lane_.enabled()) {
            lane_.Emit(obs::EventKind::kNote, "skip-erased", {cur_ref_},
                       {}, "target erased earlier in the sequence");
          }
        } else {
          XUPDATE_RETURN_IF_ERROR(
              Accumulate(src, *op, static_cast<int>(k)));
        }
      }
    }
  }
  // Assemble (drops B3 victims, compacts the forest).
  obs::TraceSpan span(&lane_, "assemble");
  ScopedTimer timer(metrics, "aggregate.assemble_seconds");
  Pul out;
  if (!puls_.empty()) out.set_policies(puls_[0]->policies());
  size_t output_ops = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!alive_[i]) continue;
    XUPDATE_RETURN_IF_ERROR(out.AdoptOp(acc_.forest(), ops_[i]));
    if (lane_.enabled()) {
      lane_.Emit(obs::EventKind::kOpSurvived,
                 pul::OpKindName(ops_[i].kind),
                 {AggId(static_cast<int>(i))},
                 "out#" + std::to_string(output_ops));
    }
    ++output_ops;
  }
  if (metrics) {
    metrics->AddCounter("aggregate.input_ops", input_ops);
    metrics->AddCounter("aggregate.output_ops", output_ops);
    metrics->AddCounter("aggregate.folded_ops", folded_);
  }
  if (stats != nullptr) {
    stats->input_ops = input_ops;
    stats->output_ops = output_ops;
    stats->folded_ops = folded_;
  }
  return out;
}

}  // namespace

Result<pul::Pul> Aggregate(const std::vector<const pul::Pul*>& puls,
                           AggregateStats* stats) {
  return Aggregate(puls, AggregateOptions(), stats);
}

Result<pul::Pul> Aggregate(const std::vector<const pul::Pul*>& puls,
                           const AggregateOptions& options,
                           AggregateStats* stats) {
  Aggregator aggregator(puls, options);
  return aggregator.Run(stats);
}

}  // namespace xupdate::core
