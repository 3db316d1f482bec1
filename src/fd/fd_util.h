#ifndef MUDS_FD_FD_UTIL_H_
#define MUDS_FD_FD_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "data/metadata.h"
#include "data/relation.h"
#include "pli/pli_cache.h"

namespace muds {

/// Output of a full FD discovery run. TANE and FUN discover the minimal
/// UCCs (keys) as a byproduct of their key pruning; Holistic FUN (§3.2) is
/// exactly FUN returning that byproduct instead of dropping it.
struct FdDiscoveryResult {
  std::vector<Fd> fds;
  std::vector<ColumnSet> uccs;
};

/// The work counts of one TANE or FUN run: plain integers on the hot path,
/// credited to `<algorithm>.fd_checks` (FD validity tests) and
/// `<algorithm>.pli_intersects` when the run ends, on every return path.
/// Constructing it registers both counters.
class FdWorkCounts {
 public:
  explicit FdWorkCounts(const std::string& algorithm);
  ~FdWorkCounts();

  FdWorkCounts(const FdWorkCounts&) = delete;
  FdWorkCounts& operator=(const FdWorkCounts&) = delete;

  int64_t checks = 0;
  int64_t intersects = 0;

 private:
  Counter* const fd_checks_counter_;
  Counter* const pli_intersects_counter_;
};

/// The minimal FDs contributed by constant columns: ∅ → A for every column
/// A with at most one distinct value. All FD algorithms in this library
/// handle constant columns through this shared preprocessing (see DESIGN.md,
/// "Semantics decisions") and run their lattice search over
/// Relation::ActiveColumns() only.
std::vector<Fd> ConstantColumnFds(const Relation& relation);

/// Partition-refinement FD check (Lemma 1): true iff lhs → rhs holds on the
/// instance, i.e. the PLI of lhs refines column rhs. `lhs` may be empty.
bool CheckFd(PliCache* cache, const ColumnSet& lhs, int rhs);

/// Verifies an FD by first principles (hashing lhs projections); used by
/// tests to validate algorithm outputs independently of the PLI machinery.
bool CheckFdByDefinition(const Relation& relation, const ColumnSet& lhs,
                         int rhs);

}  // namespace muds

#endif  // MUDS_FD_FD_UTIL_H_
