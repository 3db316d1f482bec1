#ifndef MUDS_DATA_PROJECTION_PROBE_H_
#define MUDS_DATA_PROJECTION_PROBE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "setops/column_set.h"

namespace muds {

/// The one rule that keys a row on its codes over a column set.
/// DistinctRowIds keys whole rows with it; ProbeFdViolations keys rows on a
/// left-hand side.
///
/// A row's rank is its mixed-radix number over the set's non-constant
/// columns, Σ code_c · Π_{c' < c} card_{c'}: a bijection from the possible
/// projections onto [0, Π), where Π is the product of the cardinalities
/// (CardinalityBoundRefutesUcc's product). When Π ≤ 2^64 the rank fits a
/// 64-bit key, so equal keys are equal projections (exact()). Otherwise the
/// key is a hash of the codes and a key match is confirmed with
/// SameProjection. Constant columns are skipped either way. Both forms
/// finish with a bijective mix, so the low and the high bits of a key are
/// usable as table and partition indices; the unmixed ranks themselves
/// (FillRanks) index a table of Π slots directly.
class RowKeys {
 public:
  /// `relation` must outlive the keys and keep its codes unchanged.
  RowKeys(const Relation& relation, const ColumnSet& columns);

  /// True if equal keys always mean equal projections.
  bool exact() const { return exact_; }

  /// Π − 1, the largest rank, when exact().
  uint64_t max_rank() const { return max_rank_; }

  /// Writes the keys of rows [begin, end) to keys[0 .. end - begin),
  /// column by column.
  void Fill(RowId begin, RowId end, uint64_t* keys) const;

  /// Writes the ranks of rows [begin, end) to ranks[0 .. end - begin),
  /// unmixed. Needs exact() and max_rank() < 2^32.
  void FillRanks(RowId begin, RowId end, uint32_t* ranks) const;

  /// True if rows `a` and `b` agree on every column of the set.
  bool SameProjection(RowId a, RowId b) const {
    for (const int32_t* codes : codes_) {
      if (codes[a] != codes[b]) return false;
    }
    return true;
  }

 private:
  template <typename Rank>
  void FillRanksAs(RowId begin, RowId end, Rank* ranks) const;

  std::vector<const int32_t*> codes_;  // Non-constant columns only.
  std::vector<uint64_t> weight_;       // Π of the cardinalities before each.
  uint64_t max_rank_ = 0;
  bool exact_ = true;
};

/// Pigeonhole refutation of a uniqueness candidate: true if the product of
/// the cardinalities of `columns` (saturating) is below the row count, so
/// two rows must share their projection. Needs no row work. Sound for every
/// relation, because Relation::Cardinality never undercounts the values
/// present (dictionaries stay minimal under dedup, grow under appends, and
/// give each NULL its own code under NULL≠NULL). The empty set has product
/// 1, so it is refuted on two or more rows.
bool CardinalityBoundRefutesUcc(const Relation& relation,
                                const ColumnSet& columns);

/// ProbeFdViolations scans at most max(kProbeMinRows, |r| / kProbeRowDivisor)
/// rows: long enough to meet most duplicates of a left-hand side the
/// cardinality bound already proved non-unique (its first Π + 1 rows hold
/// one by pigeonhole), short enough that a valid FD costs a small fraction
/// of the PLI refinement that must confirm it anyway.
inline constexpr RowId kProbeMinRows = 256;
inline constexpr RowId kProbeRowDivisor = 16;

/// Bounded early-exit refutation of the FDs lhs → a, a ∈ `candidates`.
/// Scans rows in order, keys each on `lhs` with RowKeys in a table that
/// starts small and doubles, and compares every later row with the first
/// row of its projection: a pair that agrees on `lhs` and differs on a
/// refutes lhs → a. Stops when every candidate is refuted or at the scan
/// cap. Returns the refuted candidates; each one is a definite non-FD, and
/// a candidate not returned proves nothing. With a non-null `witnesses`,
/// appends one violating pair (first row, later row) per pair that refuted
/// something, in scan order, so every refuted candidate has a pair that
/// differs on it.
ColumnSet ProbeFdViolations(
    const Relation& relation, const ColumnSet& lhs,
    const ColumnSet& candidates,
    std::vector<std::pair<RowId, RowId>>* witnesses = nullptr);

}  // namespace muds

#endif  // MUDS_DATA_PROJECTION_PROBE_H_
