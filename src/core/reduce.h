#ifndef XUPDATE_CORE_REDUCE_H_
#define XUPDATE_CORE_REDUCE_H_

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "pul/pul.h"

namespace xupdate::core {

// Which reduction of §3.1 to compute.
enum class ReduceMode {
  // Definition 7: rule stages 1-9 to fixpoint. May keep a
  // non-deterministic PUL (insInto survivors).
  kPlain,
  // Definition 8: stages 1-10 — remaining insInto operations are
  // rewritten to insFirst, making the PUL's semantics deterministic
  // (|O(reduced, D)| = 1).
  kDeterministic,
  // Definition 9: deterministic reduction with every rule applied to the
  // <p-minimal applicable pair (document order of targets, then
  // lexicographic order of serialized parameters), yielding the unique
  // canonical form.
  kCanonical,
};

// Reduces `input` by the rules of Figure 2 (three families):
//   O  — drop operations overridden by a same-target or ancestor-target
//        repN / del / repC;
//   I  — collapse insertions on the same node or on sibling /
//        parent-child nodes;
//   IR — fold insertions around a node into a repN of that node.
// The reduced PUL is substitutable to `input` (Proposition 1) and the
// operator is idempotent. Requires `input` to contain no incompatible
// pair (an applicable PUL); structural side conditions are evaluated on
// the labels carried by the operations — the document is never touched.
[[nodiscard]] Result<pul::Pul> Reduce(
    const pul::Pul& input, ReduceMode mode = ReduceMode::kPlain);

// Statistics of the last phase of interest to the evaluation benches.
struct ReduceStats {
  size_t input_ops = 0;
  size_t output_ops = 0;
  size_t rule_applications = 0;
  // Chunks the engine solved: 1 at parallelism 1; otherwise at most
  // 4 * parallelism and at most the number of independent components.
  size_t shards = 0;
};

struct ReduceOptions {
  ReduceMode mode = ReduceMode::kPlain;
  // Worker threads. At 1 (the default) the whole PUL is one chunk and
  // no partition runs. Higher values partition the PUL into independent
  // components via containment-label subtree disjointness, pack them
  // into at most 4 * parallelism chunks of roughly equal op count, and
  // solve the chunks concurrently. The output is byte-identical for
  // every value.
  int parallelism = 1;
  // Reused across calls when provided; otherwise a transient pool is
  // spawned per call when parallelism > 1.
  ThreadPool* pool = nullptr;
  // Optional counters/timers sink (chunk counts, per-phase wall time).
  Metrics* metrics = nullptr;
  // Decision-provenance sink (obs/trace.h). When set, every rule firing,
  // override kill, shard assignment and surviving operation is recorded
  // under stable listing-rank ids ("#12"), on one lane per component.
  // Naming the lanes partitions the PUL even at parallelism 1, but the
  // engine solves exactly the chunks an untraced call would, so the
  // journal is byte-identical across parallelism levels and tracing
  // changes neither the path nor the output.
  obs::Tracer* tracer = nullptr;
};

// Reduce with engine knobs. There is one solve path: split the PUL into
// chunks (the whole PUL at parallelism 1), run one rule fixpoint per
// chunk, merge the survivors. Chunks hold whole components: two
// operations land in the same component iff they are connected through
// same-target / parent / adjacent-sibling / ancestor-containment links —
// exactly the relations the Figure 2 rules and override sweeps can act
// across — so per-chunk fixpoints compose to the global one and the
// deterministic merge (listing-rank order, or the canonical <o order)
// yields the same bytes however the components are chunked.
[[nodiscard]] Result<pul::Pul> Reduce(const pul::Pul& input,
                                      const ReduceOptions& options,
                                      ReduceStats* stats = nullptr);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_REDUCE_H_
