#ifndef MUDS_IND_SPIDER_H_
#define MUDS_IND_SPIDER_H_

#include <cstddef>
#include <vector>

#include "common/spill.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

/// Tuning for Spider::DiscoverExternal.
struct SpiderExternalOptions {
  /// Where the sorted runs are written. Disabled spill (or a spill file
  /// that cannot be created / is too small for the runs) falls back to the
  /// in-memory merge.
  SpillConfig spill;
  /// Streaming read buffer per column during the merge — the only
  /// per-column memory the comparison phase needs, independent of
  /// dictionary size. Values longer than the buffer grow it on demand.
  size_t run_buffer_bytes = size_t{64} << 10;
};

/// SPIDER (§2.1, Table 1): unary inclusion dependency discovery.
///
/// Phase 1 (sorting) is shared with the rest of the system: the relation's
/// dictionary encoding already stores each column's duplicate-free values in
/// sorted order — exactly the "duplicate-free value lists retrieved from the
/// PLI construction mapping" sharing described in §3.
///
/// Phase 2 (comparison) merges all value lists simultaneously: at each step
/// the group G of attributes holding the current smallest value can only be
/// included in one another, so candidates[a] is intersected with G for every
/// a in G. What survives when a column's list is exhausted are its INDs.
class Spider {
 public:
  /// Returns all valid unary INDs a ⊆ b (a != b) within `relation`, in
  /// canonical order.
  static std::vector<Ind> Discover(const Relation& relation);

  /// The engines' entry point: the in-memory merge above, or the external
  /// sort-merge below (default run buffers) when `spill` is enabled.
  static std::vector<Ind> Discover(const Relation& relation,
                                   const SpillConfig& spill);

  /// External sort-merge variant: phase 1 writes each column's sorted
  /// duplicate-free dictionary as a length-prefixed run into a disk pool,
  /// phase 2 merges the runs through fixed-size streaming buffers — the
  /// comparison never needs all dictionaries resident, which is what lets
  /// IND discovery run under a memory budget on wide, high-cardinality
  /// relations. Produces exactly the INDs Discover produces; falls back to
  /// it, counting `spider.spill_fallbacks`, when the spill tier is
  /// unavailable.
  static std::vector<Ind> DiscoverExternal(const Relation& relation,
                                           const SpiderExternalOptions& options);
};

}  // namespace muds

#endif  // MUDS_IND_SPIDER_H_
