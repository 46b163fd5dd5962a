// reason: the paper's one-shot operator pipeline, with no store. One
// caller thread cycles through four items on each of kInputSets input
// sets drawn from the seed (so that a run's cost does not hang on one
// draw); each item decodes PUL XML text, runs the operator at
// parallelism min(2, nproc) on a shared engine pool and encodes the
// result:
//
//   reduce     a 10k-op PUL (deterministic mode, reducible fraction 0.2);
//   integrate  10 parallel 1000-op PULs (conflicting fraction 0.5),
//              integrated and then reconciled;
//   aggregate  a sequence of 5 x 1000-op PULs;
//   apply      the reduced PUL applied to the 1 MB XMark document by the
//              streaming evaluator.
//
// Oracles: every output is byte-equal to the reference computed at
// parallelism 1 before the clock starts, and the streaming apply equals
// the in-memory evaluator's.
//
// Set-up (setup_s) is what a one-shot pipeline builds before its first
// operator: the engine pool plus the executor's parsed and labeled
// document (PulExecutor::Open).

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reconcile.h"
#include "core/reduce.h"
#include "exec/executor.h"
#include "exec/in_memory.h"
#include "exec/streaming.h"
#include "harness.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using xupdate::Metrics;
using xupdate::Result;
using xupdate::Status;
namespace core = xupdate::core;
namespace exec = xupdate::exec;
namespace label = xupdate::label;
namespace pul = xupdate::pul;
namespace xml = xupdate::xml;
using xupdate::workload::PulGenerator;

constexpr size_t kDocBytes = 1 << 20;
constexpr size_t kReduceOps = 10000;
constexpr double kReducibleFraction = 0.2;
constexpr size_t kParallelPuls = 10;
constexpr size_t kParallelOps = 1000;
constexpr double kConflictingFraction = 0.5;
constexpr size_t kSequencePuls = 5;
constexpr size_t kSequenceOps = 1000;
constexpr int kInputSets = 8;
constexpr int kSetupRepeats = 2 * kInputSets;

struct Inputs {
  std::string doc_text;
  std::string reduce_xml;
  std::vector<std::string> parallel_xml;
  std::vector<std::string> sequence_xml;
  std::string apply_xml;  // the reduced PUL, as text
  // Parallelism-1 references.
  std::string reduce_ref;
  std::string integrate_ref;
  std::string reconcile_ref;
  std::string aggregate_ref;
  std::string apply_ref;
};

// Moves a result into *out, naming the step on failure.
template <typename T>
Status Take(const char* step, Result<T> r, T* out) {
  if (!r.ok()) {
    return Status(r.status().code(),
                  std::string(step) + ": " + r.status().message());
  }
  *out = std::move(*r);
  return Status::OK();
}

Status Encode(const std::vector<pul::Pul>& puls,
              std::vector<std::string>* out) {
  for (const pul::Pul& p : puls) {
    Result<std::string> text = pul::SerializePul(p);
    if (!text.ok()) return text.status();
    out->push_back(std::move(*text));
  }
  return Status::OK();
}

Result<std::vector<pul::Pul>> DecodeAll(
    const std::vector<std::string>& texts) {
  std::vector<pul::Pul> puls;
  for (const std::string& t : texts) {
    Result<pul::Pul> p = pul::ParsePul(t);
    if (!p.ok()) return p.status();
    puls.push_back(std::move(*p));
  }
  return puls;
}

std::vector<const pul::Pul*> Pointers(const std::vector<pul::Pul>& puls) {
  std::vector<const pul::Pul*> out;
  for (const pul::Pul& p : puls) out.push_back(&p);
  return out;
}

// The streaming apply's oracle. Incremental label maintenance is off:
// labels are not part of the output bytes, and maintaining them fails
// on reduced PULs whose collapsed insertions place a fresh node next to
// another fresh node ("right sibling of inserted node unlabeled").
exec::InMemoryEvaluator InMemory() {
  exec::InMemoryEvaluator::Options options;
  options.maintain_labels = false;
  return exec::InMemoryEvaluator(options);
}

Status MakeInputs(uint64_t seed, Inputs* in) {
  xupdate::xmark::Config doc_config;
  doc_config.seed = seed;
  doc_config.target_bytes = kDocBytes;
  XUPDATE_RETURN_IF_ERROR(
      Take("document", xupdate::xmark::GenerateDocumentText(doc_config),
           &in->doc_text));
  xml::Document doc;
  XUPDATE_RETURN_IF_ERROR(
      Take("document parse", xml::ParseDocument(in->doc_text), &doc));
  label::Labeling labeling = label::Labeling::Build(doc);

  PulGenerator reduce_gen(doc, labeling, seed * 4 + 1);
  PulGenerator::PulOptions reduce_options;
  reduce_options.num_ops = kReduceOps;
  reduce_options.reducible_fraction = kReducibleFraction;
  pul::Pul reduce_pul;
  XUPDATE_RETURN_IF_ERROR(
      Take("reduce input", reduce_gen.Generate(reduce_options), &reduce_pul));
  XUPDATE_RETURN_IF_ERROR(Take("reduce input encode",
                               pul::SerializePul(reduce_pul),
                               &in->reduce_xml));

  PulGenerator conflict_gen(doc, labeling, seed * 4 + 2);
  PulGenerator::ConflictOptions conflict_options;
  conflict_options.num_puls = kParallelPuls;
  conflict_options.ops_per_pul = kParallelOps;
  conflict_options.conflicting_fraction = kConflictingFraction;
  std::vector<pul::Pul> parallel;
  XUPDATE_RETURN_IF_ERROR(
      Take("parallel inputs",
           conflict_gen.GenerateConflicting(conflict_options), &parallel));
  XUPDATE_RETURN_IF_ERROR(Encode(parallel, &in->parallel_xml));

  PulGenerator sequence_gen(doc, labeling, seed * 4 + 3);
  PulGenerator::SequenceOptions sequence_options;
  sequence_options.num_puls = kSequencePuls;
  sequence_options.ops_per_pul = kSequenceOps;
  std::vector<pul::Pul> sequence;
  XUPDATE_RETURN_IF_ERROR(
      Take("sequence inputs", sequence_gen.GenerateSequence(sequence_options),
           &sequence));
  XUPDATE_RETURN_IF_ERROR(Encode(sequence, &in->sequence_xml));

  // References, all at parallelism 1, from the decoded texts the items
  // decode too.
  pul::Pul decoded;
  XUPDATE_RETURN_IF_ERROR(
      Take("reduce decode", pul::ParsePul(in->reduce_xml), &decoded));
  core::ReduceOptions reduce_ref;
  reduce_ref.mode = core::ReduceMode::kDeterministic;
  pul::Pul reduced;
  XUPDATE_RETURN_IF_ERROR(
      Take("reduce reference", core::Reduce(decoded, reduce_ref), &reduced));
  XUPDATE_RETURN_IF_ERROR(Take("reduce reference encode",
                               pul::SerializePul(reduced), &in->reduce_ref));
  in->apply_xml = in->reduce_ref;

  std::vector<pul::Pul> parallel_decoded;
  XUPDATE_RETURN_IF_ERROR(Take("parallel decode", DecodeAll(in->parallel_xml),
                               &parallel_decoded));
  core::IntegrationResult integrated;
  XUPDATE_RETURN_IF_ERROR(Take(
      "integrate reference",
      core::Integrate(Pointers(parallel_decoded), core::IntegrateOptions{}),
      &integrated));
  XUPDATE_RETURN_IF_ERROR(Take("integrate reference encode",
                               pul::SerializePul(integrated.merged),
                               &in->integrate_ref));
  pul::Pul reconciled;
  XUPDATE_RETURN_IF_ERROR(Take(
      "reconcile reference",
      core::Reconcile(Pointers(parallel_decoded), core::ReconcileOptions{}),
      &reconciled));
  XUPDATE_RETURN_IF_ERROR(Take("reconcile reference encode",
                               pul::SerializePul(reconciled),
                               &in->reconcile_ref));

  std::vector<pul::Pul> sequence_decoded;
  XUPDATE_RETURN_IF_ERROR(Take("sequence decode", DecodeAll(in->sequence_xml),
                               &sequence_decoded));
  pul::Pul aggregated;
  XUPDATE_RETURN_IF_ERROR(Take("aggregate reference",
                               core::Aggregate(Pointers(sequence_decoded)),
                               &aggregated));
  XUPDATE_RETURN_IF_ERROR(Take("aggregate reference encode",
                               pul::SerializePul(aggregated),
                               &in->aggregate_ref));

  return Take("apply reference", InMemory().Evaluate(in->doc_text, reduced),
              &in->apply_ref);
}

class Reason {
 public:
  Reason(const RunConfig& config, const std::vector<Inputs>& sets,
         WorkloadResult* out, xupdate::ThreadPool* pool)
      : config_(config), sets_(sets), out_(out), pool_(pool) {}

  // Runs cycles until `seconds` have elapsed (whole cycles; at least
  // one). A cycle runs the four items round-robin on every input set in
  // turn, and is one window of the untraced loop. A warm-up cycle is
  // checked but not recorded.
  void Run(double seconds, bool traced, bool warmup = false);
  void FillLayerValues();

 private:
  // Runs one item: fn returns the output bytes paired with the
  // reference they must equal.
  template <typename F>
  void Item(const std::string& op, F&& fn);

  Status Reduce(std::vector<std::pair<std::string, const std::string*>>* out);
  Status Integrate(
      std::vector<std::pair<std::string, const std::string*>>* out);
  Status Aggregate(
      std::vector<std::pair<std::string, const std::string*>>* out);
  Status Apply(std::vector<std::pair<std::string, const std::string*>>* out);
  // Traced only: the in-memory evaluator's apply (the streaming apply's
  // oracle), timed whole and then decomposed into its public calls.
  void DecomposeInMemoryApply();

  template <typename F>
  auto Span(std::string_view layer, F&& fn) {
    if (traced_) return out_->spans.Leaf(layer, std::forward<F>(fn));
    return fn();
  }
  Metrics* metrics() { return traced_ ? &metrics_ : nullptr; }

  const RunConfig& config_;
  const std::vector<Inputs>& sets_;
  const Inputs* in_ = nullptr;  // the set the current round runs on
  WorkloadResult* out_;
  xupdate::ThreadPool* pool_;
  bool traced_ = false;
  bool warmup_ = false;
  Metrics metrics_;
  core::ReduceStats reduce_stats_;
  size_t conflicts_ = 0;
};

template <typename F>
void Reason::Item(const std::string& op, F&& fn) {
  ++out_->attempted;
  std::vector<std::pair<std::string, const std::string*>> outputs;
  if (traced_) out_->spans.BeginItem(op);
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point t0 = Clock::now();
  Status status = fn(&outputs);
  const double ms = MsBetween(t0, Clock::now());
  const double cpu = ProcessCpuMs() - cpu0;
  if (traced_) out_->spans.EndItem(ms);
  if (!status.ok()) {
    out_->Fail(op + ": " + status.ToString());
    return;
  }
  for (const auto& [bytes, ref] : outputs) {
    if (bytes != *ref) {
      out_->Fail(op + ": output differs from the parallelism-1 reference");
      return;
    }
  }
  if (!warmup_) out_->Record(op, ms, cpu, traced_);
}

Status Reason::Reduce(
    std::vector<std::pair<std::string, const std::string*>>* out) {
  Result<pul::Pul> p =
      Span("pul.decode", [&] { return pul::ParsePul(in_->reduce_xml); });
  if (!p.ok()) return p.status();
  core::ReduceOptions options;
  options.mode = core::ReduceMode::kDeterministic;
  options.parallelism = config_.parallelism;
  options.pool = pool_;
  options.metrics = metrics();
  Result<pul::Pul> reduced = Span("core.reduce", [&] {
    return core::Reduce(*p, options, &reduce_stats_);
  });
  if (!reduced.ok()) return reduced.status();
  Result<std::string> text =
      Span("pul.encode", [&] { return pul::SerializePul(*reduced); });
  if (!text.ok()) return text.status();
  out->emplace_back(std::move(*text), &in_->reduce_ref);
  return Status::OK();
}

Status Reason::Integrate(
    std::vector<std::pair<std::string, const std::string*>>* out) {
  std::vector<pul::Pul> puls;
  for (const std::string& t : in_->parallel_xml) {
    Result<pul::Pul> p = Span("pul.decode", [&] { return pul::ParsePul(t); });
    if (!p.ok()) return p.status();
    puls.push_back(std::move(*p));
  }
  std::vector<const pul::Pul*> ptrs = Pointers(puls);
  core::IntegrateOptions integrate_options;
  integrate_options.parallelism = config_.parallelism;
  integrate_options.pool = pool_;
  integrate_options.metrics = metrics();
  Result<core::IntegrationResult> integrated = Span("core.integrate", [&] {
    return core::Integrate(ptrs, integrate_options);
  });
  if (!integrated.ok()) return integrated.status();
  conflicts_ = integrated->conflicts.size();
  core::ReconcileOptions reconcile_options;
  reconcile_options.parallelism = config_.parallelism;
  reconcile_options.pool = pool_;
  reconcile_options.metrics = metrics();
  Result<pul::Pul> reconciled = Span("core.reconcile", [&] {
    return core::Reconcile(ptrs, reconcile_options);
  });
  if (!reconciled.ok()) return reconciled.status();
  Result<std::string> merged_text = Span(
      "pul.encode", [&] { return pul::SerializePul(integrated->merged); });
  Result<std::string> reconciled_text =
      Span("pul.encode", [&] { return pul::SerializePul(*reconciled); });
  if (!merged_text.ok()) return merged_text.status();
  if (!reconciled_text.ok()) return reconciled_text.status();
  out->emplace_back(std::move(*merged_text), &in_->integrate_ref);
  out->emplace_back(std::move(*reconciled_text), &in_->reconcile_ref);
  return Status::OK();
}

Status Reason::Aggregate(
    std::vector<std::pair<std::string, const std::string*>>* out) {
  std::vector<pul::Pul> puls;
  for (const std::string& t : in_->sequence_xml) {
    Result<pul::Pul> p = Span("pul.decode", [&] { return pul::ParsePul(t); });
    if (!p.ok()) return p.status();
    puls.push_back(std::move(*p));
  }
  core::AggregateOptions options;
  options.metrics = metrics();
  Result<pul::Pul> aggregated = Span("core.aggregate", [&] {
    return core::Aggregate(Pointers(puls), options);
  });
  if (!aggregated.ok()) return aggregated.status();
  Result<std::string> text =
      Span("pul.encode", [&] { return pul::SerializePul(*aggregated); });
  if (!text.ok()) return text.status();
  out->emplace_back(std::move(*text), &in_->aggregate_ref);
  return Status::OK();
}

Status Reason::Apply(
    std::vector<std::pair<std::string, const std::string*>>* out) {
  Result<pul::Pul> p =
      Span("pul.decode", [&] { return pul::ParsePul(in_->apply_xml); });
  if (!p.ok()) return p.status();
  Result<std::string> doc = Span("exec.stream_apply", [&] {
    return exec::StreamingEvaluator().Evaluate(in_->doc_text, *p);
  });
  if (!doc.ok()) return doc.status();
  out->emplace_back(std::move(*doc), &in_->apply_ref);
  return Status::OK();
}

void Reason::DecomposeInMemoryApply() {
  Result<pul::Pul> p = pul::ParsePul(in_->apply_xml);
  if (!p.ok()) return;
  Spans& spans = out_->spans;
  spans.BeginItem("apply_in_memory");
  const Clock::time_point t0 = Clock::now();
  Result<std::string> whole = InMemory().Evaluate(in_->doc_text, *p);
  const double wall = MsBetween(t0, Clock::now());
  ++out_->attempted;
  if (!whole.ok() || *whole != in_->apply_ref) {
    out_->Fail("in-memory apply differs from the streaming reference");
  }
  Result<xml::Document> doc = spans.Leaf(
      "xml.parse", [&] { return xml::ParseDocument(in_->doc_text); });
  if (doc.ok()) {
    (void)spans.Leaf("pul.check",
                     [&] { return pul::CheckPulApplicable(*doc, *p); });
    (void)spans.Leaf("pul.apply", [&] { return pul::ApplyPul(&*doc, *p); });
    xml::SerializeOptions serialize;
    serialize.with_ids = true;
    (void)spans.Leaf("xml.serialize",
                     [&] { return xml::SerializeDocument(*doc, serialize); });
  }
  spans.EndItem(wall);
}

void Reason::Run(double seconds, bool traced, bool warmup) {
  traced_ = traced;
  warmup_ = warmup;
  const Clock::time_point start = Clock::now();
  do {
    for (const Inputs& set : sets_) {
      in_ = &set;
      Item("reduce", [&](auto* o) { return Reduce(o); });
      Item("integrate", [&](auto* o) { return Integrate(o); });
      Item("aggregate", [&](auto* o) { return Aggregate(o); });
      Item("apply", [&](auto* o) { return Apply(o); });
      if (traced_) DecomposeInMemoryApply();
    }
    if (!traced_ && !warmup_) out_->EndWindow();
  } while (out_->failed == 0 &&
           MsBetween(start, Clock::now()) / 1e3 < seconds);
}

void Reason::FillLayerValues() {
  std::map<std::string, double, std::less<>>& v = out_->layer_values;
  v["core.reduce.shards"] = static_cast<double>(reduce_stats_.shards);
  v["core.reduce.ops_per_shard"] =
      Ratio(static_cast<double>(reduce_stats_.input_ops),
            static_cast<double>(reduce_stats_.shards));
  v["core.reduce.rule_applications"] =
      static_cast<double>(reduce_stats_.rule_applications);
  v["core.integrate.conflicts"] = static_cast<double>(conflicts_);
  v["reduce.unattributed_frac"] = out_->spans.Unattributed("reduce");
}

}  // namespace

WorkloadResult RunReason(const RunConfig& config) {
  WorkloadResult out;
  out.headline_ops = {"reduce", "integrate", "aggregate", "apply"};
  std::vector<Inputs> sets(kInputSets);
  for (int k = 0; k < kInputSets; ++k) {
    Status made = MakeInputs(config.seed * kInputSets + k, &sets[k]);
    if (!made.ok()) {
      ++out.attempted;
      out.Fail("generating inputs: " + made.ToString());
      return out;
    }
  }
  std::unique_ptr<xupdate::ThreadPool> pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    pool = std::make_unique<xupdate::ThreadPool>(
        static_cast<size_t>(config.parallelism));
    Result<exec::PulExecutor> executor =
        exec::PulExecutor::Open(sets[i % kInputSets].doc_text);
    out.setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    ++out.attempted;
    if (!executor.ok()) {
      out.Fail("PulExecutor::Open: " + executor.status().ToString());
      return out;
    }
  }
  Reason reason(config, sets, &out, pool.get());
  reason.Run(0, /*traced=*/false, /*warmup=*/true);
  if (config.trace) {
    reason.Run(config.seconds / 2, /*traced=*/false);
    reason.Run(config.seconds / 2, /*traced=*/true);
    reason.FillLayerValues();
  } else {
    reason.Run(config.seconds, /*traced=*/false);
  }
  return out;
}

}  // namespace perfbench
