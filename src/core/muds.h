#ifndef MUDS_CORE_MUDS_H_
#define MUDS_CORE_MUDS_H_

#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "core/engine_config.h"
#include "data/metadata.h"
#include "data/relation.h"
#include "ucc/ducc.h"

namespace muds {

/// MUDS' algorithm ablations (§5). The engine settings every algorithm
/// shares (seed, threads, PLI budget and layout, spill, sampling) are an
/// EngineConfig, passed to Muds::Run next to these.
struct MudsOptions {
  /// §5.4: use the UCC prefix tree for subset/superset look-ups. Disabling
  /// falls back to linear scans over the UCC list (the "naive
  /// implementation" the paper compares against); results are identical.
  bool use_prefix_tree = true;

  /// Use already-discovered minimal FDs to skip shadowed-phase candidates
  /// whose left-hand side is dominated by a stored FD (ablation knob; see
  /// bench_ablation). Off = validate every candidate against the data, as
  /// the pseudo-code of Algorithms 2/4 does.
  bool shadowed_knowledge_pruning = true;

  /// How hard to chase shadowed FDs (§4.3, §5.3).
  enum class Completion {
    /// The paper's Algorithms 2-4 iterated to a fixpoint over newly found
    /// FDs. **Known to be incomplete** on adversarial inputs: the extension
    /// mechanism can fail to propose a shadowed left-hand side at all (see
    /// MudsTest.PaperShadowedReconstructionIsIncomplete and DESIGN.md).
    /// Kept for studying the paper's algorithm; not the default.
    kFixpoint,
    /// After the fixpoint, certify completeness per right-hand side in Z
    /// with a lattice traversal seeded with everything the earlier phases
    /// learned (known FDs, known non-FDs, UCC key pruning). Guarantees an
    /// exact result; the default.
    kExhaustive,
  };
  Completion completion = Completion::kExhaustive;

  /// Run the paper's Algorithm 2-4 shadowed-FD reconstruction before the
  /// completion pass. Under kExhaustive this is optional: everything it
  /// finds (including every failed validation) seeds the certification
  /// sweep, so it can pay for itself or be pure overhead depending on the
  /// dataset — bench_ablation quantifies the trade-off. Under kFixpoint it
  /// always runs (it is the only shadowed-FD discovery there).
  bool run_paper_shadowed_phase = true;
};

/// Counters describing what MUDS did; benches report these alongside
/// runtimes (§6.4 attributes the cost to FD checks and PLI intersects).
struct MudsStats {
  int64_t fd_checks_minimize = 0;        // Phase "minimizeFDs" (§5.1).
  int64_t fd_checks_rz = 0;              // Phase "calculate R\Z" (§5.2).
  int64_t fd_checks_shadowed = 0;        // Phases of §5.3.
  int64_t connector_lookups = 0;
  int64_t shadowed_tasks = 0;
  int64_t shadowed_rounds = 0;
  int64_t pli_intersects = 0;
  /// Shared PLI cache effectiveness (§2.2-§2.3: one PLI store serves the
  /// UCC and FD tasks): probe outcomes, second-chance evictions under the
  /// byte budget, and the bytes cached when the run finished.
  int64_t pli_cache_hits = 0;
  int64_t pli_cache_misses = 0;
  int64_t pli_cache_evictions = 0;
  int64_t pli_cache_bytes = 0;
  /// Bytes pinned by the single-column/∅ working set, and the cold-tier
  /// traffic when a spill directory is configured (0 otherwise).
  int64_t pli_cache_pinned_bytes = 0;
  int64_t pli_cache_spill_writes = 0;
  int64_t pli_cache_spill_reloads = 0;
  int64_t pli_cache_spill_bytes = 0;
  /// Threads the run actually used (EngineConfig::num_threads resolved, so
  /// 0 shows up as the hardware concurrency).
  int num_threads_used = 1;
  /// Sub-lattice traversal tasks dispatched to the pool by the parallel
  /// phases (calculateRZ + exhaustiveCompletion) — the achieved task-level
  /// parallelism; 0 on the sequential path.
  int64_t parallel_tasks = 0;
  /// Sampling-first pre-validation: pairs sampled (plus fed back by failed
  /// full validations), candidates refuted by an evidence probe instead of
  /// a PLI check, and total probe time. All 0 when sampling is disabled.
  int64_t sampling_pairs = 0;
  int64_t sampling_refuted = 0;
  int64_t sampling_fed_back = 0;
  int64_t sampling_probe_ns = 0;
  Ducc::Stats ducc;
};

/// Full output of a MUDS run: the three metadata types plus the per-phase
/// wall-clock breakdown that drives the Figure 8 experiment.
struct MudsResult {
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;
  PhaseTimings timings;
  MudsStats stats;
};

/// MUDS (§5): the holistic profiling algorithm. One pass over the input
/// computes unary INDs (SPIDER) and the column PLIs; DUCC then finds the
/// minimal UCCs on those PLIs; finally a three-phase FD discovery exploits
/// the UCCs: (1) top-down minimization of FDs between connected minimal
/// UCCs driven by the connector look-up, (2) random-walk sub-lattice
/// traversals for right-hand sides outside every minimal UCC, and
/// (3) discovery and minimization of shadowed FDs.
///
/// With `config.num_threads > 1`, SPIDER overlaps the single-column PLI
/// construction, and the independent per-right-hand-side sub-lattice
/// traversals of "calculateRZ" and the exhaustive completion run on the
/// pool; each derives its own seed from `config.seed`.
///
/// The Profiler facade deduplicates rows before calling this (§3).
class Muds {
 public:
  /// Runs MUDS on `relation` (which must already be duplicate-row free).
  static MudsResult Run(const Relation& relation,
                        const EngineConfig& config = {},
                        const MudsOptions& options = {});
};

/// The connector look-up of §5.1 / Table 2: the union of all minimal UCCs
/// that are supersets of `connector`, minus the connector itself — the
/// candidate right-hand sides for left-hand sides split off `connector`.
ColumnSet ConnectorLookup(const std::vector<ColumnSet>& minimal_uccs,
                          const ColumnSet& connector);

}  // namespace muds

#endif  // MUDS_CORE_MUDS_H_
