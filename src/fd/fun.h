#ifndef MUDS_FD_FUN_H_
#define MUDS_FD_FUN_H_

#include "core/sampling.h"
#include "data/relation.h"
#include "fd/fd_util.h"
#include "pli/position_list_index.h"

namespace muds {

/// FUN (Novelli & Cicchetti; §2.3): level-wise FD discovery over *free
/// sets* — column combinations whose cardinality strictly exceeds every
/// proper subset's (Definition 1).
///
/// Only free sets are materialized level by level (their PLIs computed via
/// intersection); an FD X → A is detected through Lemma 1 as
/// |X|r = |X ∪ {A}|r. When X ∪ {A} was pruned as non-free, its cardinality
/// is not computed from a PLI but *inferred* recursively from subsets
/// (|Y|r = max over direct subsets for non-free Y) — FUN's signature
/// advantage over TANE.
///
/// Unique free sets are exactly the minimal UCCs (Lemma 3); FUN traverses
/// them anyway for key pruning, so they are returned as a byproduct. That
/// byproduct is what makes "Holistic FUN" (§3.2) holistic: it returns the
/// UCCs instead of discarding them, at no extra discovery cost.
///
/// Expects a duplicate-row-free relation (the Profiler guarantees this).
class Fun {
 public:
  /// With `sampling` enabled, a private
  /// evidence store built over the level-1 PLIs refutes Lemma-1 candidates
  /// before the cardinality comparison; refutation-only, so the discovered
  /// sets are identical at every sampling level. (No feedback loop here:
  /// FUN's per-candidate check is a memoized O(1) comparison, so
  /// extracting a violating pair would cost more than it saves.)
  static FdDiscoveryResult Discover(
      const Relation& relation,
      const SamplingConfig& sampling = SamplingConfig());
};

}  // namespace muds

#endif  // MUDS_FD_FUN_H_
