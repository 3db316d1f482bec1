#ifndef MUDS_UCC_LATTICE_TRAVERSAL_H_
#define MUDS_UCC_LATTICE_TRAVERSAL_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "setops/antichain.h"
#include "setops/column_set.h"

namespace muds {

/// Finds all minimal sets satisfying a monotone predicate over the subset
/// lattice of `universe`, using DUCC's strategy (§2.2): a random walk that
/// alternates between climbing from non-satisfying nodes and descending from
/// satisfying ones, with subset/superset pruning, followed by "hole"
/// filling: one branch-and-bound sweep classifies every node that neither
/// a found minimal positive nor a found maximal negative covers (FillHoles).
/// It stands in for §2.2's comparison with the minimal hitting sets of the
/// complements of the maximal negatives, and computes no hitting sets.
///
/// The same engine runs DUCC itself (predicate = "is unique") and MUDS'
/// graph traversal for right-hand sides in R\Z (§5.2, predicate =
/// "functionally determines A") — the paper's point that the two walks only
/// differ in the check they perform.
///
/// The predicate must be monotone: P(X) and X ⊆ Y imply P(Y). The empty set
/// is assumed *not* to satisfy P (callers handle degenerate inputs).
class LatticeTraversal {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Sets known to satisfy P before the walk starts (need not be minimal).
    /// MUDS passes its minimal UCCs for key pruning (any superset of a UCC
    /// determines every attribute); DUCC passes the full active column set,
    /// which deduplication has proved unique. They suppress predicate
    /// evaluations but are never reported as minimal without verification.
    std::vector<ColumnSet> known_positive;
    /// Sets known to violate P before the walk starts.
    std::vector<ColumnSet> known_negative;
  };

  struct Stats {
    int64_t predicate_calls = 0;
    int64_t holes_checked = 0;
    int64_t walk_steps = 0;
  };

  using Predicate = std::function<bool(const ColumnSet&)>;

  LatticeTraversal(ColumnSet universe, Predicate predicate, Options options);

  /// Runs the traversal to completion and returns the minimal satisfying
  /// sets in canonical order.
  std::vector<ColumnSet> Run();

  const Stats& stats() const { return stats_; }

  /// Maximal non-satisfying sets discovered (an antichain; complete enough
  /// to certify the minimal positives, not necessarily all true maximal
  /// negatives).
  std::vector<ColumnSet> MaximalNegatives() const {
    return negatives_.CollectAll();
  }

 private:
  enum class Truth { kPositive, kNegative };

  // Classifies a node, consulting knowledge before calling the predicate.
  Truth Classify(const ColumnSet& node);

  // True if covered by knowledge (no predicate call needed).
  bool KnownPositive(const ColumnSet& node) const;
  bool KnownNegative(const ColumnSet& node) const;

  // Random walk from a seed node until it gets stuck.
  void WalkFrom(ColumnSet node);

  // Verifies that every direct subset of `node` is negative; if so, records
  // `node` as a minimal positive. Returns a positive direct subset if one
  // exists (so the walk can descend).
  bool TryConfirmMinimalPositive(const ColumnSet& node,
                                 ColumnSet* positive_subset);

  // Climbs from a negative node to a maximal negative and records it.
  void ConfirmMaximalNegative(ColumnSet node);

  // Descends from a positive node and confirms a minimal positive.
  void DescendConfirm(ColumnSet node);

  // Classifies holes — nodes that are neither supersets of a confirmed
  // minimal positive nor subsets of a known negative — until none remain,
  // which certifies that the confirmed minimal positives are complete.
  void FillHoles();

  ColumnSet universe_;
  Predicate predicate_;
  Options options_;
  Rng rng_;
  Stats stats_;

  MinimalSetCollection minimal_positives_;  // Verified minimal.
  MinimalSetCollection known_positives_;    // Classification knowledge.
  MaximalSetCollection negatives_;

  // Scratch for WalkFrom's batched candidate expansion (reused across
  // nodes to avoid per-node allocations).
  std::vector<int> batch_extras_;
  std::vector<uint8_t> batch_known_;
};

}  // namespace muds

#endif  // MUDS_UCC_LATTICE_TRAVERSAL_H_
