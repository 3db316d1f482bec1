#ifndef MUDS_RESEARCH_INCREMENTAL_H_
#define MUDS_RESEARCH_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/evidence.h"
#include "core/profiler.h"
#include "data/relation.h"
#include "pli/pli_cache.h"

namespace muds {

/// Maintains the complete IND/UCC/FD profile of a growing relation under
/// appended row batches, without recomputing from scratch. Maintenance
/// under appends is beyond the paper's one-shot profile; production grows a
/// relation with Relation::AppendBatch and profiles it once. This class is
/// kept for research (`bench_incremental`) and for `muds_diff`'s
/// `incremental` axis.
///
/// The construction runs one ordinary from-scratch profile (via the
/// configured algorithm) and then keeps the relation, a PliCache over it,
/// and the three dependency sets alive. Each Append() absorbs a batch and
/// repairs the sets using the detection-vs-rediscovery split of Bläsius et
/// al. (arXiv 2103.13331): *detecting* which dependencies an append can
/// have broken is far cheaper than rediscovering any of them, so the bulk
/// of the lattice is never touched.
///
/// Per batch:
///   1. Rows duplicating an existing (or earlier batch) row are dropped —
///      the profile of a deduplicated instance is unchanged by duplicates
///      (§3), so such rows are no-ops. An entirely-duplicate batch returns
///      immediately.
///   2. Relation::AppendBatch merges dictionaries in place, and the
///      PliCache over the old instance is dropped for a new one over the
///      grown relation (no derived PLI of the old instance stays valid).
///   3. INDs are recomputed by SPIDER's dictionary merge — appends can both
///      break INDs (new unmatched values in a dependent column) and create
///      them (new values in a referenced column closing a gap), but the
///      sorted post-merge dictionaries make the full recomputation one
///      cheap multiway merge, with no lattice above it.
///   4. UCCs/FDs can only *break* under appended rows — any set unique now
///      was unique before — so maintenance is: a cheap screen (a dependency
///      over attribute set S can only break if some appended row collides
///      with another row in every column of S), re-validation of the
///      screened survivors against the new cache's PLIs, and, where a minimal
///      UCC or FD actually broke, a localized upward lattice re-exploration
///      seeded at the broken sets and pruned by a SetTrie of the still-valid
///      minima. Completeness: every new minimal UCC/FD-LHS is a strict
///      superset of some broken old minimal one, and all sets strictly
///      between them are invalid, so the upward walk reaches it.
///
/// After every Append() the three sets are bit-identical to a from-scratch
/// profile of the grown (deduplicated) instance — the muds_diff `--append`
/// axis asserts exactly that against the reference oracle.
///
/// Not thread-safe: one Append at a time (internally it parallelizes over
/// the configured thread count; results are identical for every count).
class IncrementalProfiler {
 public:
  /// Profiles `base` from scratch (deduplicating first, like
  /// ProfileRelation) and becomes the maintained state. `options` drives
  /// both the initial run and all subsequent maintenance (threads, PLI
  /// budget, spill tier). The profiler owns its run's one pool, of
  /// `options.num_threads`, for the base profile and every Append.
  IncrementalProfiler(const Relation& base, const ProfileOptions& options);

  IncrementalProfiler(const IncrementalProfiler&) = delete;
  IncrementalProfiler& operator=(const IncrementalProfiler&) = delete;

  /// Appends `batch` (same schema as the base relation) and repairs the
  /// dependency sets. Returns InvalidArgument on a schema mismatch; the
  /// state is unchanged on error.
  Status Append(const Relation& batch);

  /// The maintained relation (deduplicated, including all appended rows).
  const Relation& relation() const { return *relation_; }

  const std::vector<Ind>& inds() const { return inds_; }
  const std::vector<ColumnSet>& uccs() const { return uccs_; }
  const std::vector<Fd>& fds() const { return fds_; }

  /// Assembles a ProfilingResult over the current state: the three sets,
  /// accumulated phase timings, and the metrics of the profiler's run,
  /// which the constructor and every Append credit (the base profile's
  /// counters plus the `incremental.*` ones: batches, appended_rows and
  /// duplicates_dropped after dedup, and per dependency screened_out,
  /// revalidated, evidence_hits, broken, rediscovered, explored_nodes).
  ProfilingResult Result() const;

 private:
  // Hash of a row's string values (value identity survives the dictionary
  // remaps appends perform, codes do not).
  static uint64_t HashRowValues(const Relation& relation, RowId row);
  static bool EqualRows(const Relation& a, RowId row_a, const Relation& b,
                        RowId row_b);

  // Dependency repair phases of one Append (relation_ grown, cache_
  // rebuilt over it). `witness` is the SetTrie of per-appended-row collision sets.
  void MaintainUccs(const class SetTrie& witness);
  void MaintainFds(const class SetTrie& witness);

  ProfileOptions options_;
  // The run the constructor and every Append credit; nested in the run
  // that was current where the profiler was constructed.
  const std::shared_ptr<RunMetrics> run_;
  ThreadPool pool_;
  std::optional<Relation> relation_;       // Stable address; mutated in place.
  std::unique_ptr<PliCache> cache_;
  // Sampled-pair evidence, persisted across batches (sampling enabled
  // only). Old pairs stay valid under appends — existing values never
  // change — and each batch seeds fresh pairs from its collision columns,
  // so survivors the sampler can refute skip their PLI re-validation.
  std::unique_ptr<EvidenceStore> evidence_;

  std::vector<Ind> inds_;
  std::vector<ColumnSet> uccs_;
  std::vector<Fd> fds_;

  // Value-hash → rows, over relation_: the cross-batch duplicate filter.
  std::unordered_map<uint64_t, std::vector<RowId>> row_index_;

  PhaseTimings timings_;
  int64_t duplicates_removed_ = 0;
  Algorithm algorithm_used_ = Algorithm::kMuds;
};

}  // namespace muds

#endif  // MUDS_RESEARCH_INCREMENTAL_H_
