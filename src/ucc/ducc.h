#ifndef MUDS_UCC_DUCC_H_
#define MUDS_UCC_DUCC_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "pli/pli_cache.h"
#include "setops/column_set.h"
#include "ucc/lattice_traversal.h"

namespace muds {

class EvidenceStore;

/// DUCC (§2.2): discovery of all minimal unique column combinations via a
/// random-walk traversal of the attribute lattice with bidirectional
/// pruning and hole filling.
///
/// The uniqueness check refutes before it intersects: a candidate whose
/// column cardinalities multiply to fewer than |r| cannot be unique
/// (CardinalityBoundRefutesUcc), and is rejected with no row work and no
/// cache access. Only the candidates that pass this bound (and, with
/// sampling, the evidence probe) build their PLI through the shared
/// PliCache, and are unique iff no stripped cluster remains. Confirmations
/// take the PLI path, with one exception: the full active column set. In a
/// duplicate-free relation every row pair differs in some active column, so
/// that set is a UCC without a check, and it seeds the traversal as a known
/// positive. This also changes the walk's path: a node one column below it
/// becomes a maximal negative without a climb, and later random draws fall
/// differently. The traversal still checks each of its direct subsets
/// before reporting it as minimal.
///
/// The input relation must be duplicate-row free (§3); the Profiler facade
/// guarantees this, and debug builds check it. A relation with fewer than
/// two rows has the single minimal UCC ∅.
class Ducc {
 public:
  struct Options {
    Options() : seed(1) {}
    uint64_t seed;
  };

  /// Discovers all minimal UCCs of `relation`, using (and filling) `cache`.
  /// Counts `ducc.uniqueness_checks` (predicate calls), `ducc.walk_steps`,
  /// `ducc.holes_checked` and `ducc.refuted_by_cardinality` (checks the
  /// cardinality bound settled) in the metrics registry.
  /// With a non-null `evidence` store, each candidate is probed against the
  /// recorded violating pairs first — a probe hit refutes it with zero PLI
  /// work, and a full check that fails anyway feeds its duplicate pair back
  /// into the store. Refutation-only: the discovered UCC set is identical
  /// with or without evidence.
  static std::vector<ColumnSet> Discover(const Relation& relation,
                                         PliCache* cache,
                                         const Options& options = Options(),
                                         EvidenceStore* evidence = nullptr);
};

}  // namespace muds

#endif  // MUDS_UCC_DUCC_H_
