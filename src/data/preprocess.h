#ifndef MUDS_DATA_PREPROCESS_H_
#define MUDS_DATA_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"

namespace muds {

class ThreadPool;

/// Result of duplicate-row removal.
struct DeduplicateResult {
  Relation relation;
  int64_t duplicates_removed = 0;
};

/// Ids of the first occurrence of each distinct row, ascending, found on
/// the rows' RowKeys. When the product Π of the cardinalities is at most the
/// row count, every row's rank lies below it: the pass fills 32-bit ranks
/// and keeps, in one row-order scan over a Π-bit bitmap, each row whose
/// rank is new. Otherwise it hashes: 64-bit keys, a radix scatter into
/// cache-sized partitions, a probe table per partition and an in-order
/// compaction. Both run on `pool` when it has more than one thread; the
/// result is identical for every thread count. Adds the call's row and
/// duplicate counts to the `dedup.rows` and `dedup.duplicates_removed`
/// registry counters, and its rows to `dedup.direct_rows` when the bitmap
/// pass ran.
std::vector<RowId> DistinctRowIds(const Relation& relation,
                                  ThreadPool* pool = nullptr);

/// Removes duplicate rows, keeping the first occurrence of each distinct
/// row, in input order: `relation.SelectRows(DistinctRowIds(relation))`,
/// or a copy of `relation` when nothing is removed.
///
/// §3 of the paper: "If the input dataset contains two identical rows ...
/// it cannot contain any UCC and, hence, most inter-task pruning rules would
/// not apply. Therefore, we assume that duplicate records ... have been
/// removed in a preprocessing step." The Profiler facade applies this before
/// every UCC/FD discovery; INDs are value-based and unaffected.
DeduplicateResult DeduplicateRows(const Relation& relation,
                                  ThreadPool* pool = nullptr);

}  // namespace muds

#endif  // MUDS_DATA_PREPROCESS_H_
