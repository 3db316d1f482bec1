#ifndef MUDS_CORE_SAMPLING_H_
#define MUDS_CORE_SAMPLING_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "pli/position_list_index.h"

namespace muds {

class EvidenceStore;
class PliCache;
class Relation;

/// Configuration of the sampling-first pre-validator (--sample-pairs /
/// --sample-seed). Sampling is refutation-only, so the discovered
/// dependency sets are bit-identical at every setting; only runtime and
/// the sampling.* counters vary.
struct SamplingConfig {
  /// Total row-pair budget for the up-front sampler (0 = disabled; the
  /// evidence store, probes, and feedback loop are all off).
  int64_t pairs = 0;

  /// Seed of the deterministic pair sampler. Independent of the traversal
  /// seed so the two axes can be swept separately.
  uint64_t seed = 1;

  bool enabled() const { return pairs > 0; }
};

/// Deterministic, cluster-stratified row-pair sampling over single-column
/// PLIs: the pair budget is split evenly across the columns that have at
/// least one stripped cluster, and each draw picks a cluster uniformly,
/// then two distinct rows within it. Sampling inside a cluster guarantees
/// every drawn pair agrees on at least that column, so its disagreement
/// set is a proper subset of the universe — the informative kind of
/// evidence (a pair agreeing nowhere refutes only single-column FDs that
/// a cheaper check already handles).
///
/// `column_plis` maps column index → that column's PLI (order defines the
/// deterministic column visit order; callers pass ascending indices).
/// Dedup happens inside the store, so over-sampling a small cluster space
/// costs draws, not memory.
void SampleEvidence(const SamplingConfig& config,
                    const std::vector<std::pair<int, const Pli*>>& column_plis,
                    EvidenceStore* store);

/// The engines' evidence build: pins every active column's single-column
/// PLI in `cache` and samples `config` into a new store over `relation`.
/// Callers decide whether to build (their guards differ) and which span
/// the build is charged to.
std::unique_ptr<EvidenceStore> BuildSampledEvidence(
    const Relation& relation, PliCache* cache, const SamplingConfig& config);

}  // namespace muds

#endif  // MUDS_CORE_SAMPLING_H_
