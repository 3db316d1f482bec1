#ifndef MUDS_CORE_HOLISTIC_FUN_H_
#define MUDS_CORE_HOLISTIC_FUN_H_

#include "core/engine_config.h"
#include "core/muds.h"
#include "data/relation.h"

namespace muds {

/// Result of a Holistic FUN or baseline run: the same shape as MUDS'. What
/// the run did is counted in the metrics registry (fun.*, and for the
/// baseline's DUCC pli_cache.* and ducc.*).
using HolisticResult = MudsResult;

/// Holistic FUN (§3.2): the "FDs and UCCs simultaneously" holistic
/// algorithm. SPIDER runs on the shared load (one scan feeds the IND task
/// and the PLI construction), and FUN — which must traverse every minimal
/// UCC anyway, because minimal UCCs are free sets (Lemma 3) — stores and
/// returns them instead of discarding them. No additional checks are
/// needed, so the FD runtime is unchanged.
class HolisticFun {
 public:
  /// On a `pool` with more than one thread the SPIDER and FUN tasks —
  /// which read disjoint state — run concurrently. Phase timings then
  /// measure each task's own elapsed time, so they can sum to more than the
  /// wall clock. FUN materializes its lattice PLIs outside any cache, so
  /// `config.pli_budget_bytes` and `config.seed` do not apply.
  static HolisticResult Run(const Relation& relation,
                            const EngineConfig& config = {},
                            ThreadPool* pool = nullptr);
};

/// The evaluation baseline (§6): the sequential execution of the three
/// single-task state-of-the-art algorithms — SPIDER (INDs), DUCC (UCCs),
/// FUN (FDs) — with no sharing: DUCC and FUN each build their own PLIs.
/// (The unshared *file read* is modeled by the Profiler facade, which
/// parses the input once per algorithm for the baseline.)
/// The three algorithms stay strictly sequential relative to each other —
/// that ordering is what the baseline models — but `pool` still
/// parallelizes DUCC's private column-PLI construction, which is
/// task-internal work.
class Baseline {
 public:
  /// `config.pli_budget_bytes` and `config.spill` apply to DUCC's private
  /// PLI cache. With sampling on, DUCC and FUN each sample a private
  /// evidence store — no sharing, matching the baseline's contract.
  static HolisticResult Run(const Relation& relation,
                            const EngineConfig& config = {},
                            ThreadPool* pool = nullptr);
};

}  // namespace muds

#endif  // MUDS_CORE_HOLISTIC_FUN_H_
