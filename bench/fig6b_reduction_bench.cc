// Figure 6b: cost of PUL reduction.
//
// Paper workload: PULs of 5k-100k operations with roughly one successful
// rule application every 10 operations; the measured pipeline is
// deserialize -> reduce -> reserialize. Expected shape: near-linear in
// the operation count, with (de)serialization dominating the reduction
// itself.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/reduce.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 8;  // large enough for 100k distinct targets

struct ReductionInput {
  pul::Pul pul;
  std::string serialized;
};

const ReductionInput& InputFixture(size_t ops) {
  static std::map<size_t, std::unique_ptr<ReductionInput>> cache;
  auto it = cache.find(ops);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 555 + ops);
  workload::PulGenerator::PulOptions options;
  options.num_ops = ops;
  options.reducible_fraction = 0.2;  // ~1 rule application per 10 ops
  auto pul = gen.Generate(options);
  if (!pul.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            pul.status().ToString().c_str());
    abort();
  }
  auto input = std::make_unique<ReductionInput>();
  auto text = pul::SerializePul(*pul);
  if (!text.ok()) abort();
  input->pul = std::move(*pul);
  input->serialized = std::move(*text);
  return *cache.emplace(ops, std::move(input)).first->second;
}

void BM_ReduceFullPipeline(benchmark::State& state) {
  const ReductionInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  core::ReduceStats stats;
  for (auto _ : state) {
    auto parsed = pul::ParsePul(input.serialized);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      return;
    }
    auto reduced =
        core::Reduce(*parsed, {.mode = core::ReduceMode::kPlain}, &stats);
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    auto text = pul::SerializePul(*reduced);
    if (!text.ok()) {
      state.SkipWithError(text.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*text);
  }
  state.counters["ops"] = static_cast<double>(input.pul.size());
  state.counters["rule_apps"] = static_cast<double>(stats.rule_applications);
  state.counters["out_ops"] = static_cast<double>(stats.output_ops);
}

void BM_ReduceDeserializeOnly(benchmark::State& state) {
  const ReductionInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = pul::ParsePul(input.serialized);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*parsed);
  }
  state.counters["ops"] = static_cast<double>(input.pul.size());
}

void BM_ReduceOnly(benchmark::State& state) {
  const ReductionInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto reduced = core::Reduce(input.pul, core::ReduceMode::kPlain);
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*reduced);
  }
  state.counters["ops"] = static_cast<double>(input.pul.size());
}

void BM_ReduceSerializeOnly(benchmark::State& state) {
  const ReductionInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto text = pul::SerializePul(input.pul);
    if (!text.ok()) {
      state.SkipWithError(text.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*text);
  }
  state.counters["ops"] = static_cast<double>(input.pul.size());
}

void PulSizes(benchmark::internal::Benchmark* b) {
  for (int64_t ops : {5000, 10000, 25000, 50000, 100000}) b->Arg(ops);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_ReduceFullPipeline)->Apply(PulSizes);
BENCHMARK(BM_ReduceDeserializeOnly)->Apply(PulSizes);
BENCHMARK(BM_ReduceOnly)->Apply(PulSizes);
BENCHMARK(BM_ReduceSerializeOnly)->Apply(PulSizes);

}  // namespace
}  // namespace xupdate

