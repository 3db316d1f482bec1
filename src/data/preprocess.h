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

/// Ids of the first occurrence of each distinct row, ascending. The pass
/// runs on `pool` when it has more than one thread; the result is identical
/// for every thread count. Adds the call's row and duplicate counts to the
/// `dedup.rows` and `dedup.duplicates_removed` registry counters.
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
