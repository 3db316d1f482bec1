#ifndef MUDS_CORE_ENGINE_CONFIG_H_
#define MUDS_CORE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/spill.h"
#include "core/sampling.h"

namespace muds {

/// The settings every engine takes (MUDS, Holistic FUN and the baseline).
/// None of them changes the discovered IND/UCC/FD sets; they trade time
/// for memory. Threads are not among them: an engine runs on the pool of
/// the run that calls it.
struct EngineConfig {
  /// Seed for randomized traversals (MUDS / baseline DUCC). Per-task
  /// traversals derive their own seeds from it.
  uint64_t seed = 1;
  /// Byte budget for the PLI caches (MUDS' shared cache and the baseline's
  /// private DUCC cache; 0 = unlimited). The discovered dependency sets
  /// are identical for every budget — a tight budget only trades rebuild
  /// work for memory.
  size_t pli_budget_bytes = size_t{1} << 30;  // PliCache::kDefaultBudgetBytes
  /// Tiered-storage configuration (--spill-dir / --spill-budget-mb):
  /// PLI-cache evictions demote to a disk spill file and SPIDER streams
  /// disk-resident runs, in separate files that `spill.budget_bytes` caps
  /// one by one. The discovered dependency sets are identical with spill
  /// on or off.
  SpillConfig spill;
  /// Sampling-first pre-validation (--sample-pairs / --sample-seed):
  /// candidates are probed against a sampled evidence store of violating
  /// row pairs before any PLI work. Refutation-only, so the discovered
  /// dependency sets are identical at every pair budget and seed.
  SamplingConfig sampling;
};

}  // namespace muds

#endif  // MUDS_CORE_ENGINE_CONFIG_H_
