#ifndef XUPDATE_ANALYSIS_PREDICT_H_
#define XUPDATE_ANALYSIS_PREDICT_H_

#include <cstddef>
#include <vector>

#include "pul/pul.h"

namespace xupdate::analysis {

// Static upper bound on the effect of Reduce (§3.1) on one PUL,
// computed from target ids, kinds and labels alone — the document and
// the rule engine are never touched. Intended uses: pre-sizing output
// buffers (`surviving_upper_bound`), skipping Reduce calls that are
// provably the identity (`no_rule_can_fire`), and scheduling (shards
// with high predicted kill counts first).
struct ReductionPrediction {
  size_t input_ops = 0;
  // Sound upper bound on |Reduce(pul)|: the fixpoint never keeps more
  // operations than this, in any mode.
  size_t surviving_upper_bound = 0;
  // input_ops - surviving_upper_bound: rule applications that are
  // guaranteed to happen (each removes at least one op).
  size_t guaranteed_kills = 0;
  // No pair of operations is related by any Figure 2 rule relation
  // (same target, parent / left-sibling link, subtree containment):
  // the rule fixpoint is a no-op. Reduce is then the identity in kPlain
  // mode; in kDeterministic mode it additionally requires
  // !has_ins_into (stage 10 rewrites insInto to insFirst); kCanonical
  // mode also reorders, so identity is never guaranteed there.
  bool no_rule_can_fire = false;
  bool has_ins_into = false;
};

[[nodiscard]] ReductionPrediction PredictReduction(const pul::Pul& pul);

// The ops (by listing index, 1 = swept) that the first override sweep
// of Reduce (rules O3/O4) is guaranteed to drop: target strictly inside
// the subtree interval of another op's repN/del target, or of a repC
// target (attributes of the repC target itself excepted).
[[nodiscard]] std::vector<char> SweptOps(const pul::Pul& pul);

}  // namespace xupdate::analysis

#endif  // XUPDATE_ANALYSIS_PREDICT_H_
