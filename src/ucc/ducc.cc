#include "ucc/ducc.h"

#include "common/check.h"
#include "common/metrics.h"
#include "core/evidence.h"
#include "data/preprocess.h"
#include "data/projection_probe.h"

namespace muds {
namespace {

// Discover's precondition, for its debug check. The dedup pass is not the
// caller's work, so it counts into no run.
[[maybe_unused]] bool IsDuplicateFree(const Relation& relation) {
  const MetricsScope uncounted(nullptr);
  return DistinctRowIds(relation).size() ==
         static_cast<size_t>(relation.NumRows());
}

}  // namespace

std::vector<ColumnSet> Ducc::Discover(const Relation& relation,
                                      PliCache* cache, const Options& options,
                                      EvidenceStore* evidence) {
  MUDS_CHECK(cache != nullptr);
  MUDS_DCHECK(IsDuplicateFree(relation));
  if (relation.NumRows() <= 1) {
    // Every projection (including the empty one) is duplicate-free.
    return {ColumnSet()};
  }

  LatticeTraversal::Options traversal_options;
  traversal_options.seed = options.seed;
  // Distinct rows differ in some active column, so the active set is a
  // UCC: dedup (§3) has proved it, and its PLI chain is never built. The
  // traversal still checks every direct subset of it before reporting it.
  const ColumnSet active = relation.ActiveColumns();
  traversal_options.known_positive = {active};
  int64_t refuted_by_cardinality = 0;
  LatticeTraversal traversal(
      active,
      [&relation, cache, evidence,
       &refuted_by_cardinality](const ColumnSet& candidate) {
        // Refute before intersecting: fewer projection values than rows
        // means a duplicate, with no row work and no cache access.
        if (CardinalityBoundRefutesUcc(relation, candidate)) {
          ++refuted_by_cardinality;
          return false;
        }
        // Sampling-first: a recorded pair agreeing on all of `candidate`
        // is a definite duplicate — refute without touching a PLI.
        if (evidence != nullptr && evidence->RefutesUcc(candidate)) {
          return false;
        }
        const std::shared_ptr<const Pli> pli = cache->Get(candidate);
        const bool unique = pli->IsUnique();
        // Adaptive growth: a violation the sampler missed refutes the
        // sibling candidates above this one for free.
        if (!unique && evidence != nullptr) {
          evidence->FeedBackUccViolation(*pli);
        }
        return unique;
      },
      traversal_options);
  std::vector<ColumnSet> uccs = traversal.Run();
  metrics::Add("ducc.uniqueness_checks", traversal.stats().predicate_calls);
  metrics::Add("ducc.walk_steps", traversal.stats().walk_steps);
  metrics::Add("ducc.holes_checked", traversal.stats().holes_checked);
  metrics::Add("ducc.refuted_by_cardinality", refuted_by_cardinality);
  return uccs;
}

}  // namespace muds
