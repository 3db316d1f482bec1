#ifndef MUDS_RESEARCH_RELATED_WORK_H_
#define MUDS_RESEARCH_RELATED_WORK_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "setops/column_set.h"

namespace muds {

/// Row-based minimal-UCC discovery in the style of GORDIAN (Sismanis et
/// al.; §7): determine the *maximal non-UCCs* from the data rows, then
/// derive the minimal UCCs as the minimal hitting sets of their
/// complements.
///
/// The maximal non-UCCs are exactly the maximal agree sets — the maximal
/// column sets on which at least two rows coincide. We enumerate candidate
/// row pairs through the stripped single-column partitions (only pairs
/// that agree somewhere can have a non-empty agree set) and keep the
/// maximal agree sets in an antichain. This reproduces the paper's §7
/// critique verbatim: "this is also costly if the number of maximal
/// non-UCCs is large" — and quadratic in duplicate-heavy columns, which
/// `bench_related_work` makes visible against DUCC.
class GordianStyleUcc {
 public:
  struct Stats {
    int64_t pairs_examined = 0;
    int64_t maximal_non_uccs = 0;
  };

  /// Returns all minimal UCCs in canonical order. Expects a
  /// duplicate-row-free relation (like every UCC algorithm here).
  static std::vector<ColumnSet> Discover(const Relation& relation,
                                         Stats* stats = nullptr);
};

/// Column-based minimal-UCC discovery in the style of HCA (Abedjan &
/// Naumann; §7): bottom-up apriori candidate generation over non-unique
/// combinations with two prunings — minimality pruning (no supersets of
/// found UCCs) and HCA's statistical pruning (a combination whose
/// cardinality *product* cannot reach the row count can never be unique,
/// so its uniqueness check is skipped).
class HcaStyleUcc {
 public:
  struct Stats {
    int64_t uniqueness_checks = 0;
    int64_t candidates_generated = 0;
    int64_t statistically_pruned = 0;
  };

  static std::vector<ColumnSet> Discover(const Relation& relation,
                                         Stats* stats = nullptr);
};

}  // namespace muds

#endif  // MUDS_RESEARCH_RELATED_WORK_H_
