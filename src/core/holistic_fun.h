#ifndef MUDS_CORE_HOLISTIC_FUN_H_
#define MUDS_CORE_HOLISTIC_FUN_H_

#include "common/timer.h"
#include "core/engine_config.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

/// Result of a Holistic FUN run (shape shared with the baseline).
struct HolisticResult {
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;
  PhaseTimings timings;
  int64_t fd_checks = 0;
  int64_t pli_intersects = 0;
  /// PLI-cache probe/eviction counters (baseline DUCC only; Holistic FUN
  /// materializes its lattice PLIs outside the cache).
  int64_t pli_cache_hits = 0;
  int64_t pli_cache_misses = 0;
  int64_t pli_cache_evictions = 0;
  int64_t pli_cache_spill_writes = 0;
  int64_t pli_cache_spill_reloads = 0;
  /// Threads the run actually used (0 in `num_threads` resolves to the
  /// hardware concurrency).
  int num_threads_used = 1;
  /// Sampling-first pre-validation counters (0 with sampling disabled).
  int64_t sampling_pairs = 0;
  int64_t sampling_refuted = 0;
  int64_t sampling_fed_back = 0;
  int64_t sampling_probe_ns = 0;
};

/// Holistic FUN (§3.2): the "FDs and UCCs simultaneously" holistic
/// algorithm. SPIDER runs on the shared load (one scan feeds the IND task
/// and the PLI construction), and FUN — which must traverse every minimal
/// UCC anyway, because minimal UCCs are free sets (Lemma 3) — stores and
/// returns them instead of discarding them. No additional checks are
/// needed, so the FD runtime is unchanged.
class HolisticFun {
 public:
  /// With `config.num_threads > 1` the SPIDER and FUN tasks — which read
  /// disjoint state — run concurrently. Phase timings then measure each
  /// task's own elapsed time, so they can sum to more than the wall clock.
  /// FUN materializes its lattice PLIs outside any cache, so
  /// `config.pli_budget_bytes` and `config.seed` do not apply.
  static HolisticResult Run(const Relation& relation,
                            const EngineConfig& config = {});
};

/// The evaluation baseline (§6): the sequential execution of the three
/// single-task state-of-the-art algorithms — SPIDER (INDs), DUCC (UCCs),
/// FUN (FDs) — with no sharing: DUCC and FUN each build their own PLIs.
/// (The unshared *file read* is modeled by the Profiler facade, which
/// parses the input once per algorithm for the baseline.)
/// The three algorithms stay strictly sequential relative to each other —
/// that ordering is what the baseline models — but `config.num_threads`
/// still parallelizes DUCC's private column-PLI construction, which is
/// task-internal work.
class Baseline {
 public:
  /// `config.pli_budget_bytes` and `config.spill` apply to DUCC's private
  /// PLI cache. With sampling on, DUCC and FUN each sample a private
  /// evidence store — no sharing, matching the baseline's contract.
  static HolisticResult Run(const Relation& relation,
                            const EngineConfig& config = {});
};

}  // namespace muds

#endif  // MUDS_CORE_HOLISTIC_FUN_H_
