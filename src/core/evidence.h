#ifndef MUDS_CORE_EVIDENCE_H_
#define MUDS_CORE_EVIDENCE_H_

#include <cstddef>
#include <shared_mutex>

#include "data/relation.h"
#include "pli/position_list_index.h"
#include "setops/column_set.h"
#include "setops/set_trie.h"

namespace muds {

/// Negative-cover evidence store for sampling-first hybrid validation.
///
/// Each recorded row pair (r1, r2) contributes its *disagreement set*
/// D = {c : r1 and r2 differ on column c}. A stored D is a definite
/// counterexample template:
///   - a UCC candidate X is refuted iff some pair agrees on all of X,
///     i.e. some stored D satisfies D ∩ X = ∅ (D ⊆ universe \ X);
///   - an FD candidate X → a is refuted iff some pair agrees on X but
///     differs on a, i.e. some stored D ⊆ universe \ X contains a.
/// Both probes are single subset walks over a SetTrie holding the
/// *subset-minimal* disagreement sets: a set dominated by a stored subset
/// is dropped and stored supersets are evicted on insert, so the cover
/// stays a small antichain and probes stay cheap no matter how many pairs
/// are sampled. Refuting a candidate costs zero PLI work.
///
/// Refutation-only invariant: a probe hit proves a violating pair exists in
/// the data, so refuted candidates are exactly the candidates full
/// validation would reject — the discovered dependency sets are
/// bit-identical at every sampling level, thread count, and feedback
/// schedule. A probe miss proves nothing and the candidate proceeds to the
/// full PLI check. Only the work counters vary with sampling.
///
/// Thread safety: probes take a shared lock, AddPair an exclusive one, so
/// the parallel lattice phases probe concurrently and feed back safely.
class EvidenceStore {
 public:
  /// The store records pairs of `relation`'s rows; the relation must
  /// outlive the store and its row values must not change (appending rows
  /// is fine — old disagreement sets stay valid because appends never
  /// alter existing values, and dictionary remaps preserve equality).
  explicit EvidenceStore(const Relation& relation);

  EvidenceStore(const EvidenceStore&) = delete;
  EvidenceStore& operator=(const EvidenceStore&) = delete;

  /// Records the disagreement set of rows `r1` and `r2`. Returns true if
  /// the set was new. Pairs of identical rows (empty disagreement set) are
  /// ignored — they can only occur on non-deduplicated input and refute
  /// nothing. `fed_back` marks pairs discovered by full validation (the
  /// adaptive feedback loop) rather than the up-front sampler.
  bool AddPair(RowId r1, RowId r2, bool fed_back);

  /// True if some recorded pair proves the UCC candidate `columns` invalid.
  bool RefutesUcc(const ColumnSet& columns) const;

  /// True if some recorded pair proves the FD lhs → rhs invalid.
  bool RefutesFd(const ColumnSet& lhs, int rhs) const;

  /// All right-hand sides refutable for `lhs` in one trie walk: the union
  /// of every stored disagreement set disjoint from `lhs`. Exactly the
  /// candidates a batched CheckFds can mark checked-and-invalid up front.
  ColumnSet RefutedRhs(const ColumnSet& lhs) const;

  /// Feedback from a failed UCC validation: records the first two rows of
  /// `pli`'s first cluster (a definite duplicate pair the sampler missed),
  /// so sibling candidates get refuted for free.
  void FeedBackUccViolation(const Pli& pli);

  /// Feedback from a failed FD validation: scans `lhs_pli`'s clusters for
  /// the first pair of rows disagreeing on `rhs` (one must exist when the
  /// refinement check failed) and records it.
  void FeedBackFdViolation(const Pli& lhs_pli, const Column& rhs);

  /// Registers the sampling.* registry counters eagerly, so metric reports
  /// list them (as zero deltas) even in runs with sampling disabled — the
  /// CI counter-presence check relies on that. The store counts its work
  /// there only: sampling.pairs (recorded, sampled + fed back),
  /// sampling.fed_back (from the feedback loop), sampling.refuted
  /// (candidates a probe refuted) and sampling.probe_ns (time in probes).
  static void RegisterMetrics();

  /// Distinct disagreement sets stored.
  size_t Size() const;

 private:
  const Relation* relation_;
  ColumnSet universe_;
  mutable std::shared_mutex mutex_;
  SetTrie negative_cover_;
};

}  // namespace muds

#endif  // MUDS_CORE_EVIDENCE_H_
