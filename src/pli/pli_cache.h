#ifndef MUDS_PLI_PLI_CACHE_H_
#define MUDS_PLI_PLI_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/spill.h"
#include "common/thread_pool.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "setops/column_set.h"

namespace muds {

/// Cache of PLIs keyed by column set, shared across profiling tasks (the
/// "holistic data structure" of §1): DUCC populates it while hunting UCCs
/// and MUDS' FD phases reuse the entries for their refinement checks.
///
/// Single-column PLIs are built eagerly at construction; multi-column PLIs
/// are built on demand by intersecting cached subsets.
///
/// Memory management: the cache holds at most `budget_bytes` of PLI payload
/// (as reported by Pli::MemoryBytes()). Single-column PLIs and the
/// empty-set PLI are pinned — they are the mandatory working set every
/// traversal bottoms out on and are never evicted. Their bytes count toward
/// the total and are additionally tracked by the `pli_cache.pinned_bytes`
/// gauge; when the pins alone exceed the budget the constructor counts
/// `pli_cache.pinned_over_budget`, because eviction can then never reach
/// the budget. The library never prints: the CLI turns such counters into
/// warnings.
///
/// Derived entries are evicted per shard with a second-chance (clock)
/// policy: a cache hit sets the entry's reference bit, and the evictor
/// skips each referenced entry once before reclaiming it — the
/// LRU-approximating reuse that lattice-sized DUCC/MUDS workloads need,
/// instead of the old hard cap that silently stopped caching. A budget of 0
/// disables eviction entirely.
///
/// Tiered storage: with a SpillConfig the cache is two-tier. An evicted
/// derived entry is serialized into a slot-based disk pool (SpillPool) and
/// kept in the map as a *cold* entry — a handle, no PLI — instead of being
/// dropped; the next Get reloads it with one positioned read, which is far
/// cheaper than rebuilding the intersect chain. Reloaded bytes are charged
/// against the budget again (a reload can re-trigger eviction elsewhere),
/// and a re-evicted entry whose disk copy still exists demotes without
/// rewriting (PLIs are immutable). When the spill pool's own byte budget is
/// exhausted, eviction degrades to the in-memory behavior: drop and rebuild.
/// Either way correctness is unaffected — PLI construction is deterministic,
/// and the round-trip is exact (sidecar included).
///
/// Counters: every probe, build, eviction and spill is counted on the
/// pli_cache.* registry metrics (common/metrics.h). A Get is one hit or one
/// miss (the prefix look-ups of a build are not counted); a probe satisfied
/// by a spill reload is a hit and one spill_reload.
///
/// Thread safety: the cache is safe for concurrent Get/Put/Size. Entries
/// live in a fixed number of hash-sharded maps, each behind its own mutex,
/// so concurrent sub-lattice traversals (which probe mostly disjoint column
/// sets) rarely contend.
/// Eviction (and spilling) runs under the inserting shard's mutex and only
/// touches that shard, so the byte budget is enforced approximately across
/// shards; reloads also run under the shard mutex, serializing reloads of
/// the same entry. When two threads race to build the same column set, the
/// first inserted entry wins and both callers observe the same shared_ptr;
/// the loser's PLI is dropped (both are equal — PLI construction is
/// deterministic in the inputs). Pli::Intersect itself keeps per-thread
/// scratch buffers, so concurrent intersects are safe. SpillPool I/O uses
/// positioned reads/writes, so concurrent shards spill without serializing
/// on a file cursor.
class PliCache {
 public:
  /// Default byte budget for cached PLIs (1 GiB).
  static constexpr size_t kDefaultBudgetBytes = size_t{1} << 30;

  /// Budget value meaning "never evict".
  static constexpr size_t kUnlimitedBudget = 0;

  /// Builds the per-column PLIs of `relation`. The relation must outlive
  /// the cache. `budget_bytes` bounds the cached PLI payload (0 = no
  /// bound). If `pool` is non-null and parallel, the single-column PLIs are
  /// built concurrently (one task per column — they are independent).
  /// Every PLI follows Pli's one sidecar attach rule; derived (intersected)
  /// entries inherit the sidecar through propagation.
  /// `spill` (when enabled) activates the cold tier; if the spill file
  /// cannot be created the cache counts `pli_cache.spill_unavailable` and
  /// runs single-tier.
  explicit PliCache(const Relation& relation,
                    size_t budget_bytes = kDefaultBudgetBytes,
                    ThreadPool* pool = nullptr,
                    const SpillConfig& spill = SpillConfig());

  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;

  /// Returns the PLI for `columns`, building (and caching) it by
  /// intersection if absent — or reloading it from the spill tier if cold.
  /// `columns` may be empty.
  std::shared_ptr<const Pli> Get(const ColumnSet& columns);

  /// Inserts an externally built PLI (e.g. from a traversal that combined
  /// two cached entries itself). If an entry for `columns` already exists
  /// it is kept — so every caller that looks the set up again observes one
  /// canonical shared_ptr, never two divergent copies. A cold entry is
  /// promoted in place with the caller's (identical) PLI.
  void Put(const ColumnSet& columns, std::shared_ptr<const Pli> pli);

  const Relation& relation() const { return *relation_; }

  /// Number of hot cached entries (including single columns); cold spilled
  /// entries are not counted. Consistent under concurrent insertion and
  /// eviction: counts exactly the entries committed to shards.
  size_t Size() const {
    return num_cached_.load(std::memory_order_acquire);
  }

  size_t budget_bytes() const { return budget_bytes_; }

  /// True when the cold tier is active (spill configured and file created).
  bool spill_enabled() const { return spill_pool_ != nullptr; }

 private:
  static constexpr size_t kNumShards = 16;

  struct Entry {
    /// Hot payload; nullptr for a cold entry (then `spilled` is valid).
    std::shared_ptr<const Pli> pli;
    size_t bytes = 0;
    bool pinned = false;
    /// Second-chance bit: set on every cache hit, cleared (once) by the
    /// clock hand before the entry becomes an eviction victim.
    bool referenced = false;
    /// Disk copy, if one exists. Stays valid across reloads (the PLI is
    /// immutable), so re-evicting a reloaded entry costs no write.
    SpillHandle spilled;
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<ColumnSet, Entry, ColumnSetHash> map;
    /// Clock queue over the unpinned hot entries, oldest-inserted first.
    /// Keys of already-evicted entries may linger and are skipped lazily.
    std::deque<ColumnSet> clock;
  };

  Shard& ShardFor(const ColumnSet& columns) {
    return shards_[columns.Hash() % kNumShards];
  }

  // Looks `columns` up in its shard; sets the reference bit on a hit and
  // reloads cold entries from the spill tier. Does not count a hit or miss
  // (callers decide what counts as a probe).
  std::shared_ptr<const Pli> Find(const ColumnSet& columns);

  // Commits `pli` for `columns` unless a hot entry already exists; returns
  // the canonical entry (the existing one on a lost race, `pli` itself
  // otherwise). `pinned` entries (single columns and the empty set) are
  // exempt from eviction. Runs the shard-local evictor afterwards when the
  // byte budget is exceeded.
  std::shared_ptr<const Pli> Insert(const ColumnSet& columns,
                                    std::shared_ptr<const Pli> pli,
                                    bool pinned = false);

  // Evicts unpinned hot entries from `shard` (second chance, oldest first)
  // until the global byte total drops to the budget or the shard has no
  // unpinned hot entries left. With the cold tier active, victims demote
  // to spilled entries instead of being dropped. Caller must hold
  // shard.mutex.
  void EvictFromShard(Shard* shard);

  // Charges a promoted/inserted hot entry to the accounting and the clock
  // queue. Caller must hold the shard mutex.
  void ChargeHotEntry(Shard* shard, const ColumnSet& columns, Entry* entry);

  const Relation* relation_;
  std::array<Shard, kNumShards> shards_;
  size_t budget_bytes_;
  std::unique_ptr<SpillPool> spill_pool_;
  std::atomic<size_t> num_cached_{0};
  std::atomic<size_t> bytes_cached_{0};
};

}  // namespace muds

#endif  // MUDS_PLI_PLI_CACHE_H_
