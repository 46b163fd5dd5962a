// Ablation: the schema tier (src/schema/) in front of the engines.
//
// Three questions:
//   1. What does a touched-type summary cost next to the exact analyzer
//      and the dynamic detector? (BM_SchemaSummaryInfer vs
//      BM_SchemaExactAnalyze / BM_SchemaDynamicDetector)
//   2. What does the tier-0 short-circuit save on an indep-heavy
//      workload the tier can actually prove — typed edits against
//      structurally disjoint regions? (BM_SchemaIntegrateIndependent,
//      tier on/off; the `tier0_rate` counter is the hit rate)
//   3. What does a losing bet cost on a conflict-heavy workload where
//      the tier abstains and the full detector runs anyway?
//      (BM_SchemaIntegrateConflicting, tier on/off)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "analysis/independence.h"
#include "analysis/schema_tier.h"
#include "bench_util.h"
#include "core/integrate.h"
#include "schema/schema.h"
#include "schema/summary.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOpsPerPul = 2000;

const schema::Schema& Xdtd() {
  static const schema::Schema* schema =
      new schema::Schema(schema::Schema::BuiltinXmark());
  return *schema;
}

// Indep-heavy pair the type tier can prove: one PUL edits person/@*
// attributes (Attr atoms at level 2), the other deletes item subtrees
// (element atoms at level 3 plus their descendant closure) — disjoint
// under the XMark DTD, so tier 0 fires on every pair.
const std::vector<pul::Pul>& IndependentPair() {
  static std::vector<pul::Pul>* cache = nullptr;
  if (cache != nullptr) return *cache;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  std::vector<xml::NodeId> person_attrs;
  std::vector<xml::NodeId> items;
  for (xml::NodeId id : fixture.doc.AllNodesInOrder()) {
    if (fixture.doc.type(id) != xml::NodeType::kElement) continue;
    if (fixture.doc.name(id) == "person" &&
        !fixture.doc.attributes(id).empty()) {
      person_attrs.push_back(fixture.doc.attributes(id)[0]);
    } else if (fixture.doc.name(id) == "item") {
      items.push_back(id);
    }
  }
  if (person_attrs.size() < 2 || items.size() < 2) {
    fprintf(stderr, "xmark fixture too small for the schema workload\n");
    abort();
  }
  // Each target exactly once: a second repV on one attribute (or a
  // second delete of one item) would be an intra-PUL incompatibility.
  auto build = [&](const std::vector<xml::NodeId>& targets, bool attrs,
                   xml::NodeId id_base) {
    pul::Pul pul;
    pul.BindIdSpace(id_base);
    size_t n = targets.size() < kOpsPerPul ? targets.size() : kOpsPerPul;
    for (size_t i = 0; i < n; ++i) {
      Status status =
          attrs ? pul.AddStringOp(pul::OpKind::kReplaceValue, targets[i],
                                  fixture.labeling,
                                  std::string("v").append(std::to_string(i)))
                : pul.AddDelete(targets[i], fixture.labeling);
      if (!status.ok()) {
        fprintf(stderr, "workload op failed: %s\n",
                status.ToString().c_str());
        abort();
      }
    }
    return pul;
  };
  cache = new std::vector<pul::Pul>();
  cache->push_back(build(person_attrs, /*attrs=*/true,
                         fixture.doc.max_assigned_id() + 1));
  cache->push_back(build(items, /*attrs=*/false,
                         fixture.doc.max_assigned_id() + 4000000));
  return *cache;
}

// Conflict-heavy pair: the generator plants cross-PUL conflicts of all
// five types, which the tier cannot (and must not) prove away.
const std::vector<pul::Pul>& ConflictingPair() {
  static std::vector<pul::Pul>* cache = nullptr;
  if (cache != nullptr) return *cache;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 977);
  workload::PulGenerator::ConflictOptions options;
  options.num_puls = 2;
  options.ops_per_pul = kOpsPerPul;
  options.conflicting_fraction = 0.3;
  options.ops_per_conflict = 2;
  auto puls = gen.GenerateConflicting(options);
  if (!puls.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  cache = new std::vector<pul::Pul>(std::move(*puls));
  return *cache;
}

// The summary alone: the price of asking the type-level question.
void BM_SchemaSummaryInfer(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = IndependentPair();
  for (auto _ : state) {
    schema::TypeSummary s = schema::InferTouchedTypes(Xdtd(), puls[0]);
    benchmark::DoNotOptimize(s);
  }
  state.counters["ops"] = static_cast<double>(puls[0].size());
}

// The exact analyzer on the same pair, for scale.
void BM_SchemaExactAnalyze(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = IndependentPair();
  for (auto _ : state) {
    analysis::IndependenceReport r =
        analysis::AnalyzeIndependence(puls[0], puls[1]);
    benchmark::DoNotOptimize(r);
  }
}

// Tiered analysis end-to-end: summaries + decide + (on a hit) report
// synthesis. On the independent pair this never reaches the sweep.
void BM_SchemaTieredAnalyze(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = IndependentPair();
  size_t hits = 0;
  for (auto _ : state) {
    schema::TypeSummary a = schema::InferTouchedTypes(Xdtd(), puls[0]);
    schema::TypeSummary b = schema::InferTouchedTypes(Xdtd(), puls[1]);
    analysis::TieredIndependence t =
        analysis::AnalyzeIndependenceTiered(a, b, puls[0], puls[1]);
    hits += t.resolved_at_tier0 ? 1 : 0;
    benchmark::DoNotOptimize(t);
  }
  state.counters["tier0_rate"] =
      state.iterations() > 0
          ? static_cast<double>(hits) / static_cast<double>(state.iterations())
          : 0.0;
}

void SchemaIntegrateLoop(benchmark::State& state,
                         const std::vector<pul::Pul>& puls,
                         bool use_schema) {
  std::vector<const pul::Pul*> refs{&puls[0], &puls[1]};
  core::IntegrateOptions options;
  options.schema = use_schema ? &Xdtd() : nullptr;
  Metrics metrics;
  options.metrics = &metrics;
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = core::Integrate(refs, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    conflicts = result->conflicts.size();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
  double pairs = static_cast<double>(metrics.counter("integrate.schema.pairs"));
  state.counters["tier0_rate"] =
      pairs > 0
          ? static_cast<double>(metrics.counter("integrate.schema.proven")) /
                pairs
          : 0.0;
  state.counters["schema_skips"] =
      static_cast<double>(metrics.counter("integrate.schema.skips"));
}

void BM_SchemaIntegrateIndependent(benchmark::State& state) {
  SchemaIntegrateLoop(state, IndependentPair(), state.range(0) != 0);
}

void BM_SchemaIntegrateConflicting(benchmark::State& state) {
  SchemaIntegrateLoop(state, ConflictingPair(), state.range(0) != 0);
}

// The dynamic detector alone on the independent pair — the cost the
// tier spares (identical to BM_SchemaIntegrateIndependent/0; kept as an
// explicitly named anchor for the trajectory plots).
void BM_SchemaDynamicDetector(benchmark::State& state) {
  SchemaIntegrateLoop(state, IndependentPair(), false);
}

BENCHMARK(BM_SchemaSummaryInfer);
BENCHMARK(BM_SchemaExactAnalyze);
BENCHMARK(BM_SchemaTieredAnalyze);
// Arg 0: tier off (baseline); arg 1: tier on.
BENCHMARK(BM_SchemaIntegrateIndependent)->Arg(0)->Arg(1);
BENCHMARK(BM_SchemaIntegrateConflicting)->Arg(0)->Arg(1);
BENCHMARK(BM_SchemaDynamicDetector);

}  // namespace
}  // namespace xupdate
