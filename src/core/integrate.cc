#include "core/integrate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "label/bitstring.h"
#include "label/node_label.h"
#include "obs/trace.h"
#include "pul/pul_view.h"
#include "schema/summary.h"
#include "pul/update_op.h"

namespace xupdate::core {

namespace {

using pul::EffectiveKind;
using pul::IsType1Kind;
using pul::IsType3Kind;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::NodeId;

struct TaggedOp {
  OpRef ref;
  const UpdateOp* op = nullptr;
  const Pul* owner = nullptr;
  OpKind effective = OpKind::kDelete;
  bool conflicted = false;
};

// One target node with all the operations aimed at it. The order key is
// the 64-bit start code prefix (label::BitString::PrefixKey64) cached at
// group creation: the document-order sort compares it first and touches
// the codes only on key ties.
struct Group {
  NodeId target = xml::kInvalidNode;
  const label::NodeLabel* label = nullptr;
  uint64_t start_key = 0;
  std::vector<TaggedOp*> ops;
  std::vector<int> children;  // indices into the group vector (type-5 tree)
};

// Per-shard scratch for DetectLocalConflicts: one bucket per op kind,
// reused across the shard's groups so the 11-kind filter is a single
// pass over each group instead of kNumOpKinds passes.
struct LocalScratch {
  std::vector<TaggedOp*> by_kind[pul::kNumOpKinds];
};

// Attribute names inserted by an insA operation.
std::vector<std::string_view> InsertedAttributeNames(const TaggedOp& op) {
  std::vector<std::string_view> names;
  for (NodeId r : op.op->param_trees) {
    names.push_back(op.owner->forest().name(r));
  }
  return names;
}

class Integrator {
 public:
  Integrator(const std::vector<const Pul*>& puls,
             const IntegrateOptions& options)
      : puls_(puls), options_(options) {}

  Result<IntegrationResult> Run();

 private:
  // Appends the type 1-4 conflicts of one target group to `out`.
  // `scratch` is the calling shard's kind-bucket scratch (reused across
  // its groups; shards never share one).
  void DetectLocalConflicts(Group& group, LocalScratch* scratch,
                            std::vector<Conflict>* out);
  // Appends the type-5 conflicts of the self-contained group forest
  // groups_[begin, end) to `out`, innermost targets first (reverse
  // document order of the overriding group).
  void DetectNonLocalConflicts(size_t begin, size_t end,
                               std::vector<Conflict>* out);

  const std::vector<const Pul*>& puls_;
  const IntegrateOptions& options_;
  std::vector<TaggedOp> tagged_;
  std::vector<Group> groups_;
  std::vector<Conflict> conflicts_;
};

void Integrator::DetectLocalConflicts(Group& group, LocalScratch* scratch,
                                      std::vector<Conflict>* out) {
  // Spans of operations from at least two distinct PULs are required for
  // any conflict.
  auto distinct_puls = [](const std::vector<TaggedOp*>& ops) {
    int first = -1;
    for (const TaggedOp* t : ops) {
      if (first == -1) {
        first = t->ref.pul;
      } else if (t->ref.pul != first) {
        return true;
      }
    }
    return false;
  };

  // One bucketing pass replaces the per-kind scans; bucket order is the
  // group's op order, so the emitted conflicts are unchanged.
  for (auto& bucket : scratch->by_kind) bucket.clear();
  for (TaggedOp* t : group.ops) {
    scratch->by_kind[static_cast<int>(t->effective)].push_back(t);
  }

  // Types 1 and 3: same effective kind, same target.
  for (int k = 0; k < pul::kNumOpKinds; ++k) {
    OpKind kind = static_cast<OpKind>(k);
    if (!IsType1Kind(kind) && !IsType3Kind(kind)) continue;
    const std::vector<TaggedOp*>& same_kind = scratch->by_kind[k];
    if (same_kind.size() < 2 || !distinct_puls(same_kind)) continue;
    Conflict c;
    c.type = IsType1Kind(kind) ? ConflictType::kRepeatedModification
                               : ConflictType::kInsertionOrder;
    for (TaggedOp* t : same_kind) {
      c.ops.push_back(t->ref);
      t->conflicted = true;
    }
    out->push_back(std::move(c));
  }

  // Type 2: insA operations from different PULs inserting at least one
  // common attribute name; conflicts are the connected components of the
  // shared-name relation.
  const std::vector<TaggedOp*>& ins_attr =
      scratch->by_kind[static_cast<int>(OpKind::kInsAttributes)];
  if (ins_attr.size() >= 2) {
    std::vector<std::vector<std::string_view>> names;
    names.reserve(ins_attr.size());
    for (TaggedOp* t : ins_attr) names.push_back(InsertedAttributeNames(*t));
    std::vector<int> component(ins_attr.size());
    for (size_t i = 0; i < ins_attr.size(); ++i) {
      component[i] = static_cast<int>(i);
    }
    std::function<int(int)> find = [&](int x) {
      while (component[static_cast<size_t>(x)] != x) {
        x = component[static_cast<size_t>(x)];
      }
      return x;
    };
    bool any_edge = false;
    for (size_t i = 0; i < ins_attr.size(); ++i) {
      for (size_t j = i + 1; j < ins_attr.size(); ++j) {
        if (ins_attr[i]->ref.pul == ins_attr[j]->ref.pul) continue;
        bool share = false;
        for (std::string_view a : names[i]) {
          for (std::string_view b : names[j]) {
            if (a == b) {
              share = true;
              break;
            }
          }
          if (share) break;
        }
        if (share) {
          component[static_cast<size_t>(find(static_cast<int>(i)))] =
              find(static_cast<int>(j));
          any_edge = true;
        }
      }
    }
    if (any_edge) {
      // Keyed on the component's first member so conflicts come out in
      // the order the operations were listed, not in hash order.
      std::map<int, Conflict> by_component;
      for (size_t i = 0; i < ins_attr.size(); ++i) {
        by_component[find(static_cast<int>(i))].ops.push_back(
            ins_attr[i]->ref);
      }
      for (auto& [root, c] : by_component) {
        if (c.ops.size() < 2) continue;
        c.type = ConflictType::kRepeatedAttributeInsertion;
        for (const OpRef& ref : c.ops) {
          for (TaggedOp* t : ins_attr) {
            if (t->ref == ref) {
              t->conflicted = true;
              break;
            }
          }
        }
        out->push_back(std::move(c));
      }
    }
  }

  // Type 4: local overrides; two dels are no conflict.
  for (TaggedOp* overrider : group.ops) {
    OpKind ok = overrider->effective;
    if (!pul::OverridesSubtree(ok)) continue;
    Conflict c;
    c.type = ConflictType::kLocalOverride;
    c.overrider = overrider->ref;
    for (TaggedOp* other : group.ops) {
      if (other == overrider || other->ref.pul == overrider->ref.pul) {
        continue;
      }
      OpKind o2 = other->effective;
      if (pul::OverridesSameTarget(ok, o2) &&
          !(ok == OpKind::kDelete && o2 == OpKind::kDelete)) {
        c.ops.push_back(other->ref);
        other->conflicted = true;
      }
    }
    if (!c.ops.empty()) {
      overrider->conflicted = true;
      out->push_back(std::move(c));
    }
  }
}

void Integrator::DetectNonLocalConflicts(size_t begin, size_t end,
                                         std::vector<Conflict>* out) {
  // Postorder over the target tree built in Run(); every node passes the
  // list of operations in its subtree up to its parent, where the
  // ancestor's repN/del/repC operations are matched against them.
  std::vector<std::vector<TaggedOp*>> subtree(end - begin);
  // groups_ is in document order, so children always follow parents;
  // iterate in reverse for a valid postorder.
  for (size_t gi = end; gi-- > begin;) {
    Group& g = groups_[gi];
    std::vector<TaggedOp*> below;
    for (int child : g.children) {
      auto& sub = subtree[static_cast<size_t>(child) - begin];
      below.insert(below.end(), sub.begin(), sub.end());
      sub.clear();
      sub.shrink_to_fit();
    }
    for (TaggedOp* overrider : g.ops) {
      OpKind ok = overrider->effective;
      if (!pul::OverridesSubtree(ok)) continue;
      Conflict c;
      c.type = ConflictType::kNonLocalOverride;
      c.overrider = overrider->ref;
      for (TaggedOp* other : below) {
        if (other->ref.pul == overrider->ref.pul) continue;
        if (other->effective == OpKind::kDelete) continue;
        if (!pul::OverridesInner(ok, g.target, other->op->target_label)) {
          continue;
        }
        c.ops.push_back(other->ref);
        other->conflicted = true;
      }
      if (!c.ops.empty()) {
        overrider->conflicted = true;
        out->push_back(std::move(c));
      }
    }
    below.insert(below.end(), g.ops.begin(), g.ops.end());
    subtree[gi - begin] = std::move(below);
  }
}

Result<IntegrationResult> Integrator::Run() {
  Metrics* metrics = options_.metrics;
  if (metrics) metrics->AddCounter("integrate.calls");

  // Tag and validate.
  for (size_t p = 0; p < puls_.size(); ++p) {
    XUPDATE_RETURN_IF_ERROR(puls_[p]->CheckCompatible());
    const auto& ops = puls_[p]->ops();
    for (size_t o = 0; o < ops.size(); ++o) {
      if (!ops[o].target_label.valid()) {
        return Status::InvalidArgument(
            "integration requires target labels on every operation");
      }
      TaggedOp t;
      t.ref = {static_cast<int>(p), static_cast<int>(o)};
      t.op = &ops[o];
      t.owner = puls_[p];
      t.effective = EffectiveKind(ops[o]);
      tagged_.push_back(t);
    }
  }
  if (metrics) metrics->AddCounter("integrate.input_ops", tagged_.size());

  obs::Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr;
  obs::TraceLane input_lane;
  if (tracing) {
    input_lane = tracer->Lane(tracer->NextPhase(), 0, "integrate");
    size_t cursor = 0;
    for (size_t p = 0; p < puls_.size(); ++p) {
      std::vector<std::string> ids;
      ids.reserve(puls_[p]->size());
      for (size_t o = 0; o < puls_[p]->size(); ++o) {
        const OpRef& r = tagged_[cursor + o].ref;
        ids.push_back(obs::RefId(r.pul, r.op));
      }
      cursor += puls_[p]->size();
      input_lane.Emit(obs::EventKind::kNote, "input", std::move(ids), {},
                      "P" + std::to_string(p));
    }
  }

  // Schema tier (tier 0): one touched-type summary per PUL, one O(types)
  // set comparison per pair — no per-op sweep at all. Sound relative to
  // documents conforming to the schema: a proven pair is one
  // analysis::AnalyzeIndependence would also call independent.
  if (options_.schema != nullptr && puls_.size() >= 2) {
    ScopedTimer timer(metrics, "integrate.schema_analysis_seconds");
    std::vector<schema::TypeSummary> summaries;
    summaries.reserve(puls_.size());
    for (const pul::Pul* p : puls_) {
      summaries.push_back(schema::InferTouchedTypes(*options_.schema, *p));
    }
    bool all_proven = true;
    for (size_t i = 0; i < puls_.size() && all_proven; ++i) {
      for (size_t j = i + 1; j < puls_.size(); ++j) {
        if (metrics) metrics->AddCounter("integrate.schema.pairs");
        if (schema::DecideIndependence(summaries[i], summaries[j]) !=
            schema::SchemaVerdict::kProvenIndependent) {
          all_proven = false;
          break;
        }
        if (metrics) metrics->AddCounter("integrate.schema.proven");
      }
    }
    if (all_proven) {
      // No conflict rule can fire, so Delta is the union of all
      // operations — what detection would produce with no conflicts.
      if (metrics) {
        metrics->AddCounter("integrate.schema.skips");
        metrics->AddCounter("integrate.conflicts", 0);
      }
      if (tracing) {
        input_lane.Emit(obs::EventKind::kFastPathTaken, "schema-independent",
                        {}, {},
                        "all PUL pairs proven independent at type level");
      }
      IntegrationResult result;
      size_t j = 0;
      for (const TaggedOp& t : tagged_) {
        XUPDATE_RETURN_IF_ERROR(
            result.merged.AdoptOp(t.owner->forest(), *t.op));
        if (tracing) {
          input_lane.Emit(obs::EventKind::kOpSurvived,
                          pul::OpKindName(t.op->kind),
                          {obs::RefId(t.ref.pul, t.ref.op)},
                          "merged#" + std::to_string(j));
        }
        ++j;
      }
      return result;
    }
  }

  // Roots of the containment forest; each root starts a contiguous run
  // of groups (a shard) that no conflict rule reaches across.
  std::vector<size_t> roots;
  obs::TraceLane group_lane;
  if (tracing) {
    group_lane = tracer->Lane(tracer->NextPhase(), 0, "integrate");
  }
  {
    obs::TraceSpan span(&group_lane, "group");
    ScopedTimer timer(metrics, "integrate.group_seconds");

    // Partition by target in document order of the targets. The flat
    // target index replaces the hash map: Head() is the group of a
    // target, -1 if unseen.
    pul::TargetIndex group_of;
    group_of.Reset(tagged_.size());
    for (TaggedOp& t : tagged_) {
      int32_t gi = group_of.Head(t.op->target);
      if (gi < 0) {
        gi = static_cast<int32_t>(groups_.size());
        group_of.Append(t.op->target, gi);
        Group g;
        g.target = t.op->target;
        g.label = &t.op->target_label;
        g.start_key = t.op->target_label.start.PrefixKey64();
        groups_.push_back(std::move(g));
      }
      groups_[static_cast<size_t>(gi)].ops.push_back(&t);
    }
    std::sort(groups_.begin(), groups_.end(),
              [](const Group& a, const Group& b) {
                return label::BitString::CompareKeyed(
                           a.start_key, a.label->start, b.start_key,
                           b.label->start) < 0;
              });

    // Containment tree over the sorted targets: the parent of a group is
    // the closest enclosing target (paper's tree T; a virtual root covers
    // forests). Ranked by sorted position, so an equal-start group sorted
    // earlier encloses.
    pul::ContainmentSweep sweep;
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      sweep.Add(*groups_[gi].label, static_cast<uint32_t>(gi),
                static_cast<int32_t>(gi));
    }
    sweep.Run([&](const pul::SweepInterval& interval,
                  std::span<const pul::SweepInterval* const> enclosing) {
      if (enclosing.empty()) {
        roots.push_back(static_cast<size_t>(interval.id));
      } else {
        groups_[static_cast<size_t>(enclosing.back()->id)]
            .children.push_back(interval.id);
      }
      return true;
    });
  }

  const size_t num_shards = roots.size();
  if (metrics) metrics->AddCounter("integrate.shards", num_shards);

  // One detect-phase lane per shard, created on the coordinating thread
  // (the pool's task queue supplies the happens-before edge for the seq
  // counters). The shard structure does not depend on the thread count,
  // so neither does the journal.
  std::vector<obs::TraceLane> shard_lanes;
  if (tracing) {
    uint32_t detect_phase = tracer->NextPhase();
    shard_lanes.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shard_lanes.push_back(tracer->Lane(
          detect_phase, static_cast<uint32_t>(s) + 1, "integrate"));
      size_t begin = roots[s];
      size_t end = s + 1 < num_shards ? roots[s + 1] : groups_.size();
      std::vector<std::string> ids;
      for (size_t gi = begin; gi < end; ++gi) {
        for (const TaggedOp* t : groups_[gi].ops) {
          ids.push_back(obs::RefId(t->ref.pul, t->ref.op));
        }
      }
      shard_lanes[s].Emit(obs::EventKind::kShardAssigned, "shard",
                          std::move(ids));
    }
  }

  // Conflict detection, one task per root subtree. Shards own disjoint
  // groups (and therefore disjoint TaggedOps), so they only ever write
  // disjoint state.
  std::vector<std::vector<Conflict>> locals(num_shards);
  std::vector<std::vector<Conflict>> nonlocals(num_shards);
  auto scan_shard = [&](size_t s) -> Status {
    obs::TraceSpan span(tracing ? &shard_lanes[s] : nullptr, "shard-detect");
    ScopedTimer shard_timer(metrics, "integrate.shard_detect_seconds");
    size_t begin = roots[s];
    size_t end = s + 1 < num_shards ? roots[s + 1] : groups_.size();
    LocalScratch scratch;
    for (size_t gi = begin; gi < end; ++gi) {
      DetectLocalConflicts(groups_[gi], &scratch, &locals[s]);
    }
    DetectNonLocalConflicts(begin, end, &nonlocals[s]);
    if (tracing) {
      auto emit_conflict = [&](const Conflict& c) {
        std::vector<std::string> ids;
        ids.reserve(c.ops.size());
        for (const OpRef& r : c.ops) ids.push_back(obs::RefId(r.pul, r.op));
        shard_lanes[s].Emit(
            obs::EventKind::kConflictDetected, ConflictTypeName(c.type),
            std::move(ids),
            c.symmetric() ? std::string()
                          : obs::RefId(c.overrider.pul, c.overrider.op));
      };
      for (const Conflict& c : locals[s]) emit_conflict(c);
      for (const Conflict& c : nonlocals[s]) emit_conflict(c);
    }
    return Status();
  };
  {
    ScopedTimer timer(metrics, "integrate.detect_seconds");
    ThreadPool* pool = options_.parallelism > 1 ? options_.pool : nullptr;
    std::unique_ptr<ThreadPool> owned;
    if (pool == nullptr && options_.parallelism > 1 && num_shards > 1) {
      owned = std::make_unique<ThreadPool>(
          std::min(static_cast<size_t>(options_.parallelism), num_shards));
      pool = owned.get();
    }
    XUPDATE_RETURN_IF_ERROR(ParallelFor(pool, num_shards, scan_shard));
  }

  // The sequential engine lists every local conflict in document order
  // of the target, then every non-local conflict in reverse document
  // order of the overriding target; concatenating the shard lists
  // forward resp. backward reproduces that exactly.
  for (size_t s = 0; s < num_shards; ++s) {
    for (Conflict& c : locals[s]) conflicts_.push_back(std::move(c));
  }
  for (size_t s = num_shards; s-- > 0;) {
    for (Conflict& c : nonlocals[s]) conflicts_.push_back(std::move(c));
  }
  if (metrics) {
    metrics->AddCounter("integrate.conflicts", conflicts_.size());
    for (const Conflict& c : conflicts_) {
      metrics->AddCounter("integrate.conflicts.type" +
                          std::to_string(static_cast<int>(c.type)));
    }
  }

  // Delta: all unconflicted operations, merged into a single PUL.
  obs::TraceLane merge_lane;
  if (tracing) {
    merge_lane = tracer->Lane(tracer->NextPhase(), 0, "integrate");
  }
  ScopedTimer timer(metrics, "integrate.merge_seconds");
  obs::TraceSpan merge_span(&merge_lane, "merge");
  IntegrationResult result;
  size_t j = 0;
  for (const TaggedOp& t : tagged_) {
    if (t.conflicted) continue;
    XUPDATE_RETURN_IF_ERROR(
        result.merged.AdoptOp(t.owner->forest(), *t.op));
    if (tracing) {
      merge_lane.Emit(obs::EventKind::kOpSurvived,
                      pul::OpKindName(t.op->kind),
                      {obs::RefId(t.ref.pul, t.ref.op)},
                      "merged#" + std::to_string(j));
    }
    ++j;
  }
  result.conflicts = std::move(conflicts_);
  return result;
}

}  // namespace

std::string_view ConflictTypeName(ConflictType type) {
  switch (type) {
    case ConflictType::kRepeatedModification:
      return "repeated-modification";
    case ConflictType::kRepeatedAttributeInsertion:
      return "repeated-attribute-insertion";
    case ConflictType::kInsertionOrder:
      return "insertion-order";
    case ConflictType::kLocalOverride:
      return "local-override";
    case ConflictType::kNonLocalOverride:
      return "non-local-override";
  }
  return "unknown";
}

Result<IntegrationResult> Integrate(
    const std::vector<const pul::Pul*>& puls) {
  return Integrate(puls, IntegrateOptions());
}

Result<IntegrationResult> Integrate(const std::vector<const pul::Pul*>& puls,
                                    const IntegrateOptions& options) {
  Integrator integrator(puls, options);
  return integrator.Run();
}

}  // namespace xupdate::core
