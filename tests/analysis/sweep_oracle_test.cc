// Differential oracle for the containment sweeps of the static analyses,
// the reduce partition and Invert's O-irreducibility check: on seeded
// PULs over an XMark document, each sweep-based answer must equal a
// brute-force O(n^2) reference built on label::IsDescendantOf, plain
// interval comparisons or Document::IsAncestor walks. Some operations
// target one node while carrying the label of another, so distinct
// targets share start codes; others carry no label at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/independence.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "common/random.h"
#include "core/invert.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "label/node_label.h"
#include "pul/pul.h"
#include "pul/pul_view.h"
#include "xmark/generator.h"

namespace xupdate::analysis {
namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

struct Fixture {
  xml::Document doc;
  label::Labeling labeling;
  std::vector<NodeId> nodes;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    xmark::Config config;
    config.seed = 7;
    config.target_bytes = 8 << 10;
    auto doc = xmark::GenerateDocument(config);
    EXPECT_TRUE(doc.ok()) << doc.status();
    f->doc = std::move(*doc);
    f->labeling = label::Labeling::Build(f->doc);
    f->nodes = f->doc.AllNodesInOrder();
    return f;
  }();
  return *fixture;
}

OpKind RandomKind(Rng* rng) {
  return static_cast<OpKind>(rng->Below(pul::kNumOpKinds));
}

// Appends one op on `target`. With `label_from` set, the op carries that
// node's label instead of its own target's (a distinct target with an
// equal start code); with `unlabeled`, it carries none.
void AddOp(Pul* pul, Rng* rng, NodeId target, const NodeLabel* label_from,
           bool unlabeled) {
  const Fixture& f = SharedFixture();
  UpdateOp op;
  op.kind = RandomKind(rng);
  op.target = target;
  if (!unlabeled) {
    op.target_label =
        label_from != nullptr ? *label_from : *f.labeling.Find(target);
    op.target_label.self = target;
  }
  // An empty repN acts as del in the conflict rules; keep some of both.
  if (op.HasTreeParams() && rng->Chance(0.7)) {
    op.param_trees.push_back(pul->NewTextParam("x"));
  }
  pul->mutable_ops().push_back(std::move(op));
}

NodeId RandomNode(Rng* rng) {
  const Fixture& f = SharedFixture();
  return f.nodes[static_cast<size_t>(rng->Below(f.nodes.size()))];
}

// `n` ops on random nodes; about one in eight borrows the label of an
// earlier op on another node, one in twenty is unlabeled.
Pul RandomPul(uint64_t seed, size_t n, bool allow_unlabeled) {
  Rng rng(seed);
  Pul pul;
  for (size_t i = 0; i < n; ++i) {
    NodeId target = RandomNode(&rng);
    const auto& ops = pul.ops();
    if (!ops.empty() && rng.Chance(0.125)) {
      const UpdateOp& donor = ops[static_cast<size_t>(rng.Below(ops.size()))];
      if (donor.target_label.valid() && donor.target != target) {
        NodeLabel copy = donor.target_label;
        AddOp(&pul, &rng, target, &copy, false);
        continue;
      }
    }
    AddOp(&pul, &rng, target, nullptr,
          allow_unlabeled && rng.Chance(0.05));
  }
  return pul;
}

// Distinct ops whose labels share a start code but not a target.
size_t EqualStartPairs(const std::vector<UpdateOp>& ops) {
  size_t pairs = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[i].target_label.valid() && ops[j].target_label.valid() &&
          ops[i].target != ops[j].target &&
          ops[i].target_label.start == ops[j].target_label.start) {
        ++pairs;
      }
    }
  }
  return pairs;
}

bool IsSubtreeKiller(OpKind kind) {
  return kind == OpKind::kReplaceNode || kind == OpKind::kDelete ||
         kind == OpKind::kReplaceChildren;
}

// Rules O3/O4 by brute force: `killer` overrides `inner` when inner's
// target lies strictly inside killer's, except same-target pairs and
// the attributes of a repC target.
bool ReferenceOverrides(const UpdateOp& killer, const UpdateOp& inner) {
  if (!IsSubtreeKiller(killer.kind)) return false;
  if (killer.target == inner.target) return false;
  if (!label::IsDescendantOf(inner.target_label, killer.target_label)) {
    return false;
  }
  return !(killer.kind == OpKind::kReplaceChildren &&
           inner.target_label.parent == killer.target &&
           inner.target_label.type == NodeType::kAttribute);
}

// a's interval contains b's, equal endpoints allowed.
bool WeaklyContains(const NodeLabel& a, const NodeLabel& b) {
  return a.valid() && b.valid() && a.start <= b.start && b.end <= a.end;
}

// The partition relation by brute force: same target, a parent or left
// sibling link to another op's target, or nested intervals.
bool ReferenceRelated(const UpdateOp& a, const UpdateOp& b) {
  if (a.target == b.target) return true;
  auto links = [](const UpdateOp& x, const UpdateOp& y) {
    const NodeLabel& lab = x.target_label;
    if (!lab.valid()) return false;
    return (lab.parent != kInvalidNode && lab.parent == y.target) ||
           (lab.left_sibling != kInvalidNode && lab.left_sibling == y.target);
  };
  if (links(a, b) || links(b, a)) return true;
  return WeaklyContains(a.target_label, b.target_label) ||
         WeaklyContains(b.target_label, a.target_label);
}

std::vector<std::vector<int>> ReferenceComponents(
    const std::vector<UpdateOp>& ops) {
  std::vector<int> uf(ops.size());
  std::iota(uf.begin(), uf.end(), 0);
  auto find = [&uf](int x) {
    while (uf[static_cast<size_t>(x)] != x) x = uf[static_cast<size_t>(x)];
    return x;
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ReferenceRelated(ops[i], ops[j])) {
        uf[static_cast<size_t>(find(static_cast<int>(i)))] =
            find(static_cast<int>(j));
      }
    }
  }
  std::vector<std::vector<int>> components;
  std::vector<int> component_of_root(ops.size(), -1);
  for (size_t i = 0; i < ops.size(); ++i) {
    int root = find(static_cast<int>(i));
    int& c = component_of_root[static_cast<size_t>(root)];
    if (c < 0) {
      c = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(c)].push_back(static_cast<int>(i));
  }
  return components;
}

// (op, related) for every XU002 warning, in op order.
std::vector<std::pair<int, int>> LintedOverrides(const Pul& pul) {
  std::vector<std::pair<int, int>> out;
  for (const Diagnostic& d : LintPul(pul)) {
    if (d.code == std::string(kCodeOverriddenBySubtreeOp)) {
      out.emplace_back(d.op_index, d.related_op);
    }
  }
  return out;
}

// XU002 by brute force: the overriding op with the lowest listing index.
std::vector<std::pair<int, int>> ReferenceLintedOverrides(
    const std::vector<UpdateOp>& ops) {
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t k = 0; k < ops.size(); ++k) {
      if (ReferenceOverrides(ops[k], ops[i])) {
        out.emplace_back(static_cast<int>(i), static_cast<int>(k));
        break;
      }
    }
  }
  return out;
}

TEST(SweepOracleTest, SingletonPulSweepsMatchBruteForce) {
  size_t equal_start_pairs = 0;
  size_t swept_total = 0;
  size_t linted_total = 0;
  size_t identity_puls = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    // Small PULs are often unrelated; large ones always relate.
    size_t n = seed % 4 == 0 ? 4 : 40 + (seed % 5) * 30;
    Pul pul = RandomPul(seed, n, /*allow_unlabeled=*/true);
    const std::vector<UpdateOp>& ops = pul.ops();
    equal_start_pairs += EqualStartPairs(ops);
    std::string context = "seed " + std::to_string(seed);

    std::vector<char> reference_swept(ops.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (const UpdateOp& killer : ops) {
        if (ReferenceOverrides(killer, ops[i])) {
          reference_swept[i] = 1;
          break;
        }
      }
    }
    EXPECT_EQ(SweptOps(pul), reference_swept) << context;
    swept_total += static_cast<size_t>(
        std::count(reference_swept.begin(), reference_swept.end(), 1));

    std::vector<std::vector<int>> reference_components =
        ReferenceComponents(ops);
    EXPECT_EQ(pul::PartitionByTargetSubtree(ops), reference_components)
        << context;
    bool reference_identity = reference_components.size() == ops.size();
    EXPECT_EQ(PredictReduction(pul).no_rule_can_fire, reference_identity)
        << context;
    if (reference_identity) ++identity_puls;

    std::vector<std::pair<int, int>> reference_linted =
        ReferenceLintedOverrides(ops);
    EXPECT_EQ(LintedOverrides(pul), reference_linted) << context;
    linted_total += reference_linted.size();
  }
  // The sweep exercised what it claims to.
  EXPECT_GT(equal_start_pairs, 0u);
  EXPECT_GT(swept_total, 0u);
  EXPECT_GT(linted_total, 0u);
  EXPECT_GT(identity_puls, 0u);
}

// Conflict type 5 by brute force, for one direction: the first
// overriding op of `over` in (start code, index) order with an op of
// `inner` strictly inside its target, paired with the first such inner
// op in the same order.
bool ReferenceNonLocalOverride(const Pul& over, const Pul& inner,
                               int* over_out, int* inner_out) {
  auto by_start = [](const Pul& pul) {
    std::vector<int> order(pul.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&pul](int x, int y) {
      int c = pul.ops()[static_cast<size_t>(x)].target_label.start.Compare(
          pul.ops()[static_cast<size_t>(y)].target_label.start);
      return c != 0 ? c < 0 : x < y;
    });
    return order;
  };
  for (int o : by_start(over)) {
    const UpdateOp& overrider = over.ops()[static_cast<size_t>(o)];
    OpKind kind = pul::EffectiveKind(overrider);
    if (!IsSubtreeKiller(kind)) continue;
    for (int i : by_start(inner)) {
      const UpdateOp& op = inner.ops()[static_cast<size_t>(i)];
      if (!label::IsDescendantOf(op.target_label, overrider.target_label)) {
        continue;
      }
      if (pul::EffectiveKind(op) == OpKind::kDelete) continue;
      if (kind == OpKind::kReplaceChildren &&
          op.target_label.parent == overrider.target &&
          op.target_label.type == NodeType::kAttribute) {
        continue;
      }
      *over_out = o;
      *inner_out = i;
      return true;
    }
  }
  return false;
}

TEST(SweepOracleTest, NonLocalOverrideWitnessMatchesBruteForce) {
  size_t equal_start_pairs = 0;
  size_t witnesses = 0;
  size_t independent = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::string context = "seed " + std::to_string(seed);
    size_t n = 5 + (seed % 6) * 12;
    Pul a = RandomPul(seed * 2, n, /*allow_unlabeled=*/false);
    // B avoids A's targets, so only conflict type 5 can fire; some of its
    // ops borrow an A op's label (equal start code, distinct target).
    std::vector<NodeId> a_targets;
    for (const UpdateOp& op : a.ops()) a_targets.push_back(op.target);
    std::sort(a_targets.begin(), a_targets.end());
    auto in_a = [&a_targets](NodeId id) {
      return std::binary_search(a_targets.begin(), a_targets.end(), id);
    };
    Rng rng(seed * 2 + 1);
    Pul b;
    while (b.size() < n) {
      NodeId target = RandomNode(&rng);
      if (in_a(target)) continue;
      if (rng.Chance(0.15)) {
        const UpdateOp& donor =
            a.ops()[static_cast<size_t>(rng.Below(a.size()))];
        NodeLabel copy = donor.target_label;
        AddOp(&b, &rng, target, &copy, false);
      } else {
        AddOp(&b, &rng, target, nullptr, false);
      }
    }
    std::vector<UpdateOp> both = a.ops();
    both.insert(both.end(), b.ops().begin(), b.ops().end());
    equal_start_pairs += EqualStartPairs(both);

    IndependenceReport report = AnalyzeIndependence(a, b);
    int over = -1;
    int inner = -1;
    if (ReferenceNonLocalOverride(a, b, &over, &inner)) {
      ++witnesses;
      EXPECT_EQ(report.reason, "non-local-override") << context;
      EXPECT_EQ(report.op_a, over) << context;
      EXPECT_EQ(report.op_b, inner) << context;
    } else if (ReferenceNonLocalOverride(b, a, &over, &inner)) {
      ++witnesses;
      EXPECT_EQ(report.reason, "non-local-override") << context;
      EXPECT_EQ(report.op_a, inner) << context;
      EXPECT_EQ(report.op_b, over) << context;
    } else {
      ++independent;
      EXPECT_EQ(report.verdict, IndependenceVerdict::kIndependent) << context;
      EXPECT_EQ(report.reason, "disjoint") << context;
    }
  }
  EXPECT_GT(equal_start_pairs, 0u);
  EXPECT_GT(witnesses, 0u);
  EXPECT_GT(independent, 0u);
}

// Rules O1/O2 of Figure 2 written out: a same-target repN/del overrides
// everything but sibling insertions and repN, a repC overrides the child
// insertions.
bool ReferenceOverridesSameTarget(OpKind overrider, OpKind other) {
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

// Invert's precondition by brute force: some O-rule applies to the ops
// of `pul`, with containment walked in `doc` (O3/O4: an op strictly
// inside a repN/del target, or inside a repC target but not one of its
// attributes).
bool ReferenceOReducible(const xml::Document& doc, const Pul& pul) {
  const std::vector<UpdateOp>& ops = pul.ops();
  for (size_t k = 0; k < ops.size(); ++k) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i == k) continue;
      const UpdateOp& over = ops[k];
      const UpdateOp& op = ops[i];
      if (over.target == op.target) {
        if (ReferenceOverridesSameTarget(over.kind, op.kind)) return true;
        continue;
      }
      if (!IsSubtreeKiller(over.kind) ||
          !doc.IsAncestor(over.target, op.target)) {
        continue;
      }
      if (over.kind == OpKind::kReplaceChildren &&
          doc.parent(op.target) == over.target &&
          doc.type(op.target) == NodeType::kAttribute) {
        continue;
      }
      return true;
    }
  }
  return false;
}

// Appends a well-formed op of a random kind on `target` (insA inserts an
// attribute, the other tree kinds text), carrying `label`.
void AddValidOp(Pul* pul, Rng* rng, NodeId target, const NodeLabel& label) {
  UpdateOp op;
  op.kind = RandomKind(rng);
  op.target = target;
  op.target_label = label;
  op.target_label.self = target;
  if (op.kind == OpKind::kInsAttributes) {
    op.param_trees.push_back(pul->NewAttributeParam(
        "a" + std::to_string(pul->size()), "v"));
  } else if (op.HasTreeParams() &&
             (pul::ClassOf(op.kind) == pul::OpClass::kInsertion ||
              rng->Chance(0.7))) {
    op.param_trees.push_back(pul->NewTextParam("x"));
  } else if (!op.HasTreeParams() && op.kind != OpKind::kDelete) {
    op.param_string = "s";
  }
  ASSERT_TRUE(pul->AddOp(std::move(op)).ok());
}

// Compatible PULs of `n` ops on non-root nodes. About one op in four
// reuses an earlier op's target, one in ten borrows another node's
// label, and some pair a repC with an op on an attribute of its target.
Pul InvertiblePul(uint64_t seed, size_t n) {
  const Fixture& f = SharedFixture();
  Rng rng(seed);
  Pul pul;
  pul.BindIdSpace(f.doc.max_assigned_id() + 1);
  while (pul.size() < n) {
    const auto& ops = pul.ops();
    NodeId target = RandomNode(&rng);
    if (!ops.empty() && rng.Chance(0.25)) {
      target = ops[static_cast<size_t>(rng.Below(ops.size()))].target;
    }
    if (target == f.doc.root()) continue;
    const std::vector<NodeId>& attributes = f.doc.attributes(target);
    if (!attributes.empty() && rng.Chance(0.3)) {
      UpdateOp repc;
      repc.kind = OpKind::kReplaceChildren;
      repc.target = target;
      repc.target_label = *f.labeling.Find(target);
      EXPECT_TRUE(pul.AddOp(std::move(repc)).ok());
      target = attributes[static_cast<size_t>(rng.Below(attributes.size()))];
    }
    const NodeLabel& own = *f.labeling.Find(target);
    const NodeLabel& borrowed = *f.labeling.Find(RandomNode(&rng));
    AddValidOp(&pul, &rng, target, rng.Chance(0.1) ? borrowed : own);
    while (!pul.CheckCompatible().ok()) pul.mutable_ops().pop_back();
  }
  return pul;
}

bool RejectedAsOReducible(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument &&
         status.message().find("O-reducible") != std::string::npos;
}

TEST(SweepOracleTest, InvertVerdictMatchesBruteForce) {
  const Fixture& f = SharedFixture();
  size_t rejected = 0;
  size_t accepted = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::string context = "seed " + std::to_string(seed);
    Pul raw = InvertiblePul(seed, 4 + (seed % 6) * 8);
    auto reduced = core::Reduce(raw, core::ReduceMode::kDeterministic);
    ASSERT_TRUE(reduced.ok()) << context << ": " << reduced.status();
    for (const Pul* pul : {&raw, &*reduced}) {
      bool reference = ReferenceOReducible(f.doc, *pul);
      Result<Pul> inverse = core::Invert(f.doc, f.labeling, *pul);
      EXPECT_EQ(RejectedAsOReducible(inverse.status()), reference)
          << context << (pul == &raw ? " raw: " : " reduced: ")
          << inverse.status();
      ++(reference ? rejected : accepted);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace xupdate::analysis
