#ifndef XUPDATE_CORE_INVERT_H_
#define XUPDATE_CORE_INVERT_H_

#include "common/result.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "xml/document.h"

namespace xupdate::core {

// PUL inversion — the future-work item of the paper's §6 ("the study of
// PUL inversion ... requires either the extension of the PUL production
// algorithm or the access to the document the PUL refers to"). This
// implementation takes the document-access route: given a PUL and the
// pre-state document it applies to, it computes a PUL that undoes it:
//
//   Apply(D, pul) = D'  implies  Apply(D', Invert(D, pul)) = D
//
// including node identities (removed subtrees are re-inserted with their
// original ids; ids are never reused, matching §4.1).
//
// Inverses per primitive:
//   ins*(v, P)   ->  del of every inserted root
//   del(v)       ->  re-insertion of the saved subtree at its position
//                    (grouped per anchor to keep sibling order exact)
//   repN(v, P)   ->  repN(first(P), saved v) + del of the other roots
//   repV(v, s)   ->  repV(v, old value)
//   ren(v, l)    ->  ren(v, old name)
//   repC(v, P)   ->  repC(v, saved children) [generalized repC]
//
// Precondition: the PUL must be O-irreducible — no operation may be
// overridden by a same-target or ancestor-target repN/del/repC (rules
// O1-O4 of Figure 2 must not apply). Such operations have no effect on
// the document, so their inverses would wrongly "undo" nothing into
// something; run Reduce() first. Violations yield kInvalidArgument.
//
// `labeling` must be `doc`'s own (Labeling::Build(doc) or one kept in
// step with it): the check takes every target's label from it, ignoring
// the labels the operations carry, and decides O1-O4 with one
// same-target join and one containment sweep, O(n log n) in the number
// of operations. A target the labeling lacks yields kNotApplicable
// before any other verdict.
[[nodiscard]] Result<pul::Pul> Invert(const xml::Document& doc,
                        const label::Labeling& labeling,
                        const pul::Pul& pul);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_INVERT_H_
