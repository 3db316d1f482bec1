#include "pli/pli_cache.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace muds {

namespace {

// Process-wide registry handles, shared by every cache instance (multiple
// caches can coexist: MUDS' shared cache, the baseline's private DUCC
// cache). Resolved once; eagerly touched by the constructor so the metrics
// report always lists the pli_cache.* family, even for runs that never
// probe.
struct CacheCounters {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* intersects;
  Counter* spill_writes;
  Counter* spill_reloads;
  // Degraded configurations, counted instead of printed: the pins alone
  // exceed the budget, or the spill file could not be created.
  Counter* pinned_over_budget;
  Counter* spill_unavailable;
  Gauge* bytes_cached;
  Gauge* pinned_bytes;
  Gauge* spill_bytes;

  static const CacheCounters& Get() {
    static const CacheCounters counters = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      CacheCounters c;
      c.hits = registry.GetCounter("pli_cache.hits");
      c.misses = registry.GetCounter("pli_cache.misses");
      c.evictions = registry.GetCounter("pli_cache.evictions");
      c.intersects = registry.GetCounter("pli_cache.intersects");
      c.spill_writes = registry.GetCounter("pli_cache.spill_writes");
      c.spill_reloads = registry.GetCounter("pli_cache.spill_reloads");
      c.pinned_over_budget =
          registry.GetCounter("pli_cache.pinned_over_budget");
      c.spill_unavailable = registry.GetCounter("pli_cache.spill_unavailable");
      c.bytes_cached = registry.GetGauge("pli_cache.bytes_cached");
      c.pinned_bytes = registry.GetGauge("pli_cache.pinned_bytes");
      c.spill_bytes = registry.GetGauge("pli_cache.spill_bytes");
      return c;
    }();
    return counters;
  }
};

}  // namespace

PliCache::PliCache(const Relation& relation, size_t budget_bytes,
                   ThreadPool* pool, const SpillConfig& spill)
    : relation_(&relation), budget_bytes_(budget_bytes) {
  const CacheCounters& counters = CacheCounters::Get();
  if (spill.enabled() && budget_bytes_ != kUnlimitedBudget) {
    Result<std::unique_ptr<SpillPool>> created = SpillPool::Create(spill);
    if (created.ok()) {
      spill_pool_ = std::move(created.value());
    } else {
      counters.spill_unavailable->Increment();
    }
  }
  const int n = relation.NumColumns();
  std::vector<std::shared_ptr<const Pli>> singles(static_cast<size_t>(n));
  const auto build = [&](int64_t c) {
    singles[static_cast<size_t>(c)] = std::make_shared<Pli>(Pli::FromColumn(
        relation.GetColumn(static_cast<int>(c)), relation.NumRows()));
  };
  ParallelForOrInline(pool, n, build);
  size_t pinned = 0;
  for (int c = 0; c < n; ++c) {
    pinned += Insert(ColumnSet::Single(c),
                     std::move(singles[static_cast<size_t>(c)]),
                     /*pinned=*/true)
                  ->MemoryBytes();
  }
  pinned += Insert(ColumnSet(),
                   std::make_shared<Pli>(Pli::ForEmptySet(relation.NumRows())),
                   /*pinned=*/true)
                ->MemoryBytes();
  if (budget_bytes_ != kUnlimitedBudget && pinned > budget_bytes_) {
    counters.pinned_over_budget->Increment();
  }
}

void PliCache::ChargeHotEntry(Shard* shard, const ColumnSet& columns,
                              Entry* entry) {
  if (!entry->pinned) shard->clock.push_back(columns);
  bytes_cached_.fetch_add(entry->bytes, std::memory_order_relaxed);
  CacheCounters::Get().bytes_cached->Add(static_cast<int64_t>(entry->bytes));
  if (entry->pinned) {
    CacheCounters::Get().pinned_bytes->Add(
        static_cast<int64_t>(entry->bytes));
  }
  num_cached_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const Pli> PliCache::Find(const ColumnSet& columns) {
  Shard& shard = ShardFor(columns);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(columns);
  if (it == shard.map.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.pli == nullptr) {
    // Cold entry: reload from the spill tier. One positioned read plus a
    // deserialize — this is the rebuild-avoiding path the tier exists for.
    MUDS_TRACE_SPAN("pliCacheReload");
    MUDS_CHECK(entry.spilled.valid() && spill_pool_ != nullptr);
    std::vector<char> buffer(entry.spilled.bytes);
    Status read = spill_pool_->Read(entry.spilled, buffer.data());
    Result<Pli> reloaded = read.ok()
                               ? Pli::Deserialize(buffer.data(), buffer.size())
                               : Result<Pli>(read);
    if (!reloaded.ok()) {
      // Treat an unreadable disk copy as a plain miss: drop the entry and
      // let the caller rebuild.
      CacheCounters::Get().spill_bytes->Add(
          -static_cast<int64_t>(entry.spilled.bytes));
      spill_pool_->Free(entry.spilled);
      shard.map.erase(it);
      return nullptr;
    }
    entry.pli = std::make_shared<Pli>(std::move(reloaded.value()));
    entry.bytes = entry.pli->MemoryBytes();
    entry.referenced = true;
    ChargeHotEntry(&shard, columns, &entry);
    CacheCounters::Get().spill_reloads->Increment();
    // The reload re-charges the budget; make room. Copy the result first —
    // the evictor may demote this very entry again (it gets its second
    // chance, but it can be the only unpinned entry in the shard).
    std::shared_ptr<const Pli> result = entry.pli;
    EvictFromShard(&shard);
    return result;
  }
  // Safe under the shard mutex; gives the entry its second chance.
  entry.referenced = true;
  return entry.pli;
}

void PliCache::EvictFromShard(Shard* shard) {
  if (budget_bytes_ == kUnlimitedBudget) return;
  while (bytes_cached_.load(std::memory_order_relaxed) > budget_bytes_ &&
         !shard->clock.empty()) {
    ColumnSet victim = std::move(shard->clock.front());
    shard->clock.pop_front();
    auto it = shard->map.find(victim);
    if (it == shard->map.end()) continue;   // Already dropped; stale key.
    if (it->second.pli == nullptr) continue;  // Already cold; stale key.
    // Pinned entries never enter the clock queue.
    MUDS_CHECK(!it->second.pinned);
    if (it->second.referenced) {
      it->second.referenced = false;
      shard->clock.push_back(std::move(victim));
      continue;
    }
    Entry& entry = it->second;
    const CacheCounters& counters = CacheCounters::Get();
    // Demote to the cold tier when possible; a still-valid disk copy from
    // an earlier spill is reused without rewriting.
    bool demoted = entry.spilled.valid();
    if (!demoted && spill_pool_ != nullptr) {
      MUDS_TRACE_SPAN("pliCacheSpill");
      const size_t serialized = entry.pli->SerializedBytes();
      std::vector<char> buffer(serialized);
      entry.pli->SerializeTo(buffer.data());
      Result<SpillHandle> written =
          spill_pool_->Write(buffer.data(), serialized);
      if (written.ok()) {
        entry.spilled = written.value();
        demoted = true;
        counters.spill_writes->Increment();
        counters.spill_bytes->Add(static_cast<int64_t>(serialized));
      }
      // Else the spill pool is full: fall back to drop-and-rebuild.
    }
    bytes_cached_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    num_cached_.fetch_sub(1, std::memory_order_release);
    counters.evictions->Increment();
    counters.bytes_cached->Add(-static_cast<int64_t>(entry.bytes));
    if (demoted) {
      entry.pli = nullptr;
      entry.referenced = false;
    } else {
      shard->map.erase(it);
    }
  }
}

std::shared_ptr<const Pli> PliCache::Insert(const ColumnSet& columns,
                                            std::shared_ptr<const Pli> pli,
                                            bool pinned) {
  Shard& shard = ShardFor(columns);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(columns);
  if (it != shard.map.end()) {
    if (it->second.pli != nullptr) return it->second.pli;
    // Cold entry: promote in place with the caller's PLI (identical by
    // determinism — cheaper than reloading the disk copy, which stays
    // valid for the next demotion).
    Entry& entry = it->second;
    entry.pli = std::move(pli);
    entry.bytes = entry.pli->MemoryBytes();
    entry.referenced = true;
    ChargeHotEntry(&shard, columns, &entry);
    std::shared_ptr<const Pli> result = entry.pli;
    EvictFromShard(&shard);
    return result;
  }
  Entry entry;
  entry.bytes = pli->MemoryBytes();
  entry.pinned = pinned;
  entry.pli = std::move(pli);
  std::shared_ptr<const Pli> result = entry.pli;
  Entry& committed = shard.map.emplace(columns, std::move(entry)).first->second;
  ChargeHotEntry(&shard, columns, &committed);
  if (!pinned) EvictFromShard(&shard);
  return result;
}

std::shared_ptr<const Pli> PliCache::Get(const ColumnSet& columns) {
  if (std::shared_ptr<const Pli> hit = Find(columns)) {
    CacheCounters::Get().hits->Increment();
    return hit;
  }
  CacheCounters::Get().misses->Increment();

  // Build by intersecting the PLI of (columns minus its last column) with
  // the last single-column PLI. This caches every prefix of the sorted
  // column list, so related look-ups (the lattice walks probe neighbors)
  // hit the cache. Prefix probes are internal — they do not count toward
  // the hit/miss totals (spill reloads they trigger still count as
  // reloads).
  std::vector<int> indices = columns.ToIndices();
  MUDS_CHECK(!indices.empty());
  ColumnSet prefix;
  std::shared_ptr<const Pli> pli = Find(ColumnSet::Single(indices[0]));
  MUDS_CHECK(pli != nullptr);
  prefix.Add(indices[0]);
  for (size_t i = 1; i < indices.size(); ++i) {
    prefix.Add(indices[i]);
    if (std::shared_ptr<const Pli> cached = Find(prefix)) {
      pli = std::move(cached);
      continue;
    }
    const std::shared_ptr<const Pli> single =
        Find(ColumnSet::Single(indices[i]));
    // Single-column PLIs are pinned, so an evicting cache still bottoms
    // out here.
    MUDS_CHECK(single != nullptr);
    auto combined = std::make_shared<Pli>(pli->Intersect(*single));
    CacheCounters::Get().intersects->Increment();
    // On a race the canonical (first-inserted) entry comes back, so
    // concurrent builders of the same set agree on one shared_ptr.
    pli = Insert(prefix, std::move(combined));
  }
  return pli;
}

void PliCache::Put(const ColumnSet& columns, std::shared_ptr<const Pli> pli) {
  Insert(columns, std::move(pli));
}

}  // namespace muds
