#ifndef MUDS_RESEARCH_UCC_INFERENCE_H_
#define MUDS_RESEARCH_UCC_INFERENCE_H_

#include <vector>

#include "data/metadata.h"
#include "setops/column_set.h"

namespace muds {

/// Attribute closure of `start` under `fds`: the set of attributes
/// functionally determined by `start` (the textbook fixpoint; used by the
/// FDs-first UCC inference and handy on its own for schema analysis).
ColumnSet AttributeClosure(const ColumnSet& start, const std::vector<Fd>& fds,
                           int num_columns);

/// §3.1, "FDs first": derives all minimal UCCs from the complete set of
/// minimal FDs of a duplicate-free relation, per Lemma 2
/// (U → R\U  ⇒  U is a UCC) — the approach of Saiedian & Spencer the paper
/// cites and then declines to pursue because "the inference and
/// minimization of UCCs introduces an additional overhead". This
/// implementation exists to make that §3 design discussion executable:
/// tests verify it agrees with DUCC, and bench_ablation can measure the
/// overhead against Holistic FUN's free UCC byproduct.
///
/// `num_columns` is the relation's column count; `fds` must be the
/// *complete* minimal-FD set (e.g. from TANE/FUN/MUDS). Attributes that no
/// FD mentions still participate (they belong to every key).
///
/// The search is a branch-and-bound over attribute sets with closure
/// pruning; worst case exponential, like the key-finding problem itself.
std::vector<ColumnSet> InferUccsFromFds(const std::vector<Fd>& fds,
                                        int num_columns);

}  // namespace muds

#endif  // MUDS_RESEARCH_UCC_INFERENCE_H_
