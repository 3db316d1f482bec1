#ifndef MUDS_CORE_MUDS_H_
#define MUDS_CORE_MUDS_H_

#include <vector>

#include "common/timer.h"
#include "core/engine_config.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

class ThreadPool;

/// MUDS' algorithm ablations (§5). The engine settings every algorithm
/// shares (seed, PLI budget and layout, spill, sampling) are an
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

/// Full output of a MUDS run (and, as HolisticResult, of Holistic FUN and
/// the baseline): the three metadata types plus the per-phase wall-clock
/// breakdown that drives the Figure 8 experiment. What the run
/// did is counted in the metrics registry (muds.*; §6.4 attributes the cost
/// to FD checks, split per phase as muds.fd_checks.{minimize,rz,shadowed},
/// and PLI intersects, pli_cache.intersects; candidates refuted by the row
/// probe before any PLI work count on muds.fd_probe.refuted).
struct MudsResult {
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;
  PhaseTimings timings;
};

/// MUDS (§5): the holistic profiling algorithm. One pass over the input
/// computes unary INDs (SPIDER) and the column PLIs; DUCC then finds the
/// minimal UCCs on those PLIs; finally a three-phase FD discovery exploits
/// the UCCs: (1) top-down minimization of FDs between connected minimal
/// UCCs driven by the connector look-up, (2) random-walk sub-lattice
/// traversals for right-hand sides outside every minimal UCC, and
/// (3) discovery and minimization of shadowed FDs.
///
/// On a `pool` with more than one thread, SPIDER overlaps the single-column
/// PLI construction, and the independent per-right-hand-side sub-lattice
/// traversals of "calculateRZ" and the exhaustive completion run on the
/// pool; each derives its own seed from `config.seed`. A null or
/// single-threaded pool runs everything inline on the caller.
///
/// The Profiler facade deduplicates rows before calling this (§3).
class Muds {
 public:
  /// Runs MUDS on `relation` (which must already be duplicate-row free) on
  /// the caller's `pool`; the run builds none.
  static MudsResult Run(const Relation& relation,
                        const EngineConfig& config = {},
                        const MudsOptions& options = {},
                        ThreadPool* pool = nullptr);
};

/// The connector look-up of §5.1 / Table 2: the union of all minimal UCCs
/// that are supersets of `connector`, minus the connector itself — the
/// candidate right-hand sides for left-hand sides split off `connector`.
ColumnSet ConnectorLookup(const std::vector<ColumnSet>& minimal_uccs,
                          const ColumnSet& connector);

}  // namespace muds

#endif  // MUDS_CORE_MUDS_H_
