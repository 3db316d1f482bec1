// Byte-budgeted eviction contract of the PliCache: eviction never changes
// what Get returns (evicted sets are rebuilt identically), pinned
// single-column entries survive any budget, and the hit/miss/eviction
// counters add up to the probes actually made.

#include "pli/pli_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "data/preprocess.h"
#include "pli/position_list_index.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

Relation LruTestRelation() {
  return DeduplicateRows(MakeCategorical(400, {4, 3, 5, 2, 6, 3, 4}, 23,
                                         "lru_test"))
      .relation;
}

// Bytes of the pinned working set (single columns + ∅) of a cache over `r`.
size_t PinnedBytes(const Relation& r) {
  const MetricsScope scope;
  PliCache probe(r, PliCache::kUnlimitedBudget);
  return static_cast<size_t>(ScopeValue(scope, "pli_cache.pinned_bytes"));
}

// Whether `columns` was cached when asked for: its Get counts one hit.
// (A miss builds and caches the set.)
bool GetHits(PliCache& cache, const ColumnSet& columns) {
  const MetricsScope scope;
  cache.Get(columns);
  return ScopeValue(scope, "pli_cache.hits") == 1;
}

std::vector<ColumnSet> AllPairsAndTriples(int n) {
  std::vector<ColumnSet> sets;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      sets.push_back(ColumnSet::FromIndices({a, b}));
      for (int c = b + 1; c < n; ++c) {
        sets.push_back(ColumnSet::FromIndices({a, b, c}));
      }
    }
  }
  return sets;
}

TEST(PliCacheLruTest, EvictionPreservesCorrectness) {
  const Relation r = LruTestRelation();
  const std::vector<ColumnSet> sets = AllPairsAndTriples(r.NumColumns());
  std::vector<std::shared_ptr<const Pli>> expected;
  {
    const MetricsScope scope;
    PliCache unlimited(r, PliCache::kUnlimitedBudget);
    for (const ColumnSet& set : sets) expected.push_back(unlimited.Get(set));
    EXPECT_EQ(ScopeValue(scope, "pli_cache.evictions"), 0);
  }
  // Tiny budget: every derived entry is evicted almost immediately.
  const MetricsScope scope;
  PliCache tight(r, /*budget_bytes=*/1);
  for (size_t s = 0; s < sets.size(); ++s) {
    const ColumnSet& set = sets[s];
    const auto a = tight.Get(set);
    const auto& b = expected[s];
    ASSERT_EQ(a->NumClusters(), b->NumClusters()) << set.ToString();
    ASSERT_EQ(a->NumNonSingletonRows(), b->NumNonSingletonRows())
        << set.ToString();
    ASSERT_EQ(a->DistinctCount(), b->DistinctCount()) << set.ToString();
    // Cluster contents, not just counts: rebuilds must be identical.
    ASSERT_EQ(a->rows().size(), b->rows().size()) << set.ToString();
    for (size_t i = 0; i < a->rows().size(); ++i) {
      ASSERT_EQ(a->rows()[i], b->rows()[i]) << set.ToString();
    }
  }
  EXPECT_GT(ScopeValue(scope, "pli_cache.evictions"), 0);
}

TEST(PliCacheLruTest, EvictedSetRebuildsIdentically) {
  const Relation r = LruTestRelation();
  PliCache cache(r, /*budget_bytes=*/1);
  const ColumnSet probe = ColumnSet::FromIndices({0, 1, 2});
  const Pli first = *cache.Get(probe);
  // The 1-byte budget evicted the entry right after insertion; force many
  // other builds through the same cache, then rebuild.
  for (const ColumnSet& set : AllPairsAndTriples(r.NumColumns())) {
    cache.Get(set);
  }
  const MetricsScope scope;
  const Pli second = *cache.Get(probe);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 0);
  ASSERT_EQ(first.rows().size(), second.rows().size());
  for (size_t i = 0; i < first.rows().size(); ++i) {
    EXPECT_EQ(first.rows()[i], second.rows()[i]);
  }
  ASSERT_EQ(first.offsets().size(), second.offsets().size());
  for (size_t i = 0; i < first.offsets().size(); ++i) {
    EXPECT_EQ(first.offsets()[i], second.offsets()[i]);
  }
}

TEST(PliCacheLruTest, PinnedSinglesSurviveAnyBudget) {
  const Relation r = LruTestRelation();
  PliCache cache(r, /*budget_bytes=*/1);
  // Hammer the cache so the evictor runs many times.
  for (const ColumnSet& set : AllPairsAndTriples(r.NumColumns())) {
    cache.Get(set);
  }
  // Every single-column PLI and the empty set are still resident.
  for (int c = 0; c < r.NumColumns(); ++c) {
    EXPECT_TRUE(GetHits(cache, ColumnSet::Single(c))) << "column " << c;
  }
  EXPECT_TRUE(GetHits(cache, ColumnSet()));
  EXPECT_EQ(cache.Size(), static_cast<size_t>(r.NumColumns()) + 1);
}

TEST(PliCacheLruTest, CountersAddUp) {
  const Relation r = LruTestRelation();
  const MetricsScope scope;
  PliCache cache(r, PliCache::kUnlimitedBudget);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 0);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.misses"), 0);

  const ColumnSet ab = ColumnSet::FromIndices({0, 1});
  cache.Get(ab);                       // miss (built)
  cache.Get(ab);                       // hit
  cache.Get(ColumnSet::Single(0));     // hit (pinned, prebuilt)
  cache.Get(ab);                       // hit
  cache.Get(ColumnSet::FromIndices({2, 3}));          // miss (built)
  cache.Get(ColumnSet::FromIndices({0, 1, 2}));       // miss (built; the
  // internal prefix look-up of {0,1} during the build is not a probe).

  const int64_t hits = ScopeValue(scope, "pli_cache.hits");
  const int64_t misses = ScopeValue(scope, "pli_cache.misses");
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(misses, 3);
  EXPECT_EQ(hits + misses, 6);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.evictions"), 0);
}

TEST(PliCacheLruTest, BytesStayWithinBudgetOrPinnedFloor) {
  const Relation r = LruTestRelation();
  // A budget big enough for the pinned set plus a handful of derived
  // entries, small enough to force evictions over the full workload.
  const size_t pinned_bytes = PinnedBytes(r);  // singles + ∅
  const size_t budget = pinned_bytes + (size_t{8} << 10);
  const MetricsScope scope;
  PliCache cache(r, budget);
  for (const ColumnSet& set : AllPairsAndTriples(r.NumColumns())) {
    cache.Get(set);
    const size_t bytes =
        static_cast<size_t>(ScopeValue(scope, "pli_cache.bytes_cached"));
    EXPECT_LE(bytes, std::max(budget, pinned_bytes))
        << "after " << set.ToString();
  }
  EXPECT_GT(ScopeValue(scope, "pli_cache.evictions"), 0);
}

TEST(PliCacheLruTest, PinnedOverBudgetIsCountedNotPrinted) {
  const Relation r = LruTestRelation();
  const MetricsScope scope;
  ::testing::internal::CaptureStderr();
  PliCache cache(r, /*budget_bytes=*/1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(ScopeValue(scope, "pli_cache.pinned_over_budget"), 1);
}

// Builds `older`, then `newer`, then `fresh` (column pairs, so no derived
// prefix is cached along the way) in a cache whose budget holds the
// `pinned_bytes` and all three but one byte, so building `fresh` evicts
// exactly one entry of its shard. With `touch_older`, `older` is hit
// before `fresh` is built.
std::unique_ptr<PliCache> SweepAfter(const Relation& r, size_t pinned_bytes,
                                     const ColumnSet& older,
                                     const ColumnSet& newer,
                                     const ColumnSet& fresh,
                                     bool touch_older) {
  size_t derived_bytes = 0;
  {
    PliCache sizes(r, PliCache::kUnlimitedBudget);
    for (const ColumnSet& set : {older, newer, fresh}) {
      derived_bytes += sizes.Get(set)->MemoryBytes();
    }
  }
  auto cache = std::make_unique<PliCache>(r, pinned_bytes + derived_bytes - 1);
  cache->Get(older);
  cache->Get(newer);
  if (touch_older) cache->Get(older);
  cache->Get(fresh);
  return cache;
}

// Finds column pairs `hot`, `cold` and `fresh` such that, with no hits,
// building `fresh` evicts whichever of the other two was built first: all
// three share one shard, and the clock hand reaches the older one first.
// (The first check after each sweep is a hit, so it cannot disturb the
// second.)
bool FindOldestFirstSweep(const Relation& r, ColumnSet* hot, ColumnSet* cold,
                          ColumnSet* fresh) {
  const size_t pinned_bytes = PinnedBytes(r);
  std::vector<ColumnSet> pairs;
  for (const ColumnSet& set : AllPairsAndTriples(r.NumColumns())) {
    if (set.Count() == 2) pairs.push_back(set);
  }
  for (const ColumnSet& a : pairs) {
    for (const ColumnSet& b : pairs) {
      for (const ColumnSet& c : pairs) {
        if (a == b || a == c || b == c) continue;
        const auto a_first = SweepAfter(r, pinned_bytes, a, b, c, false);
        if (!GetHits(*a_first, b) || GetHits(*a_first, a)) continue;
        const auto b_first = SweepAfter(r, pinned_bytes, b, a, c, false);
        if (!GetHits(*b_first, a) || GetHits(*b_first, b)) continue;
        *hot = a;
        *cold = b;
        *fresh = c;
        return true;
      }
    }
  }
  return false;
}

TEST(PliCacheLruTest, SecondChanceKeepsRecentlyHitEntries) {
  const Relation r = LruTestRelation();
  ColumnSet hot;
  ColumnSet cold;
  ColumnSet fresh;
  ASSERT_TRUE(FindOldestFirstSweep(r, &hot, &cold, &fresh));
  // The same order, but `hot` is hit after `cold` is built: its reference
  // bit sends the clock hand past it, and `cold`, built later and never
  // hit, is evicted instead.
  const auto cache = SweepAfter(r, PinnedBytes(r), hot, cold, fresh, true);
  EXPECT_TRUE(GetHits(*cache, hot)) << hot.ToString();
  EXPECT_FALSE(GetHits(*cache, cold)) << cold.ToString();
}

TEST(PliCacheLruTest, ConcurrentEvictionStormStaysConsistent) {
  const Relation r = LruTestRelation();
  ThreadPool pool(4);
  const std::vector<ColumnSet> sets = AllPairsAndTriples(r.NumColumns());
  std::vector<int64_t> distinct;
  {
    PliCache oracle(r, PliCache::kUnlimitedBudget);
    for (const ColumnSet& set : sets) {
      distinct.push_back(oracle.Get(set)->DistinctCount());
    }
  }
  const MetricsScope scope;
  PliCache cache(r, PinnedBytes(r) + (size_t{16} << 10), &pool);
  // Racing builders + evictors: every Get must still return a PLI with the
  // canonical shape.
  pool.ParallelFor(0, static_cast<int64_t>(sets.size()) * 3, [&](int64_t i) {
    const size_t s = static_cast<size_t>(i) % sets.size();
    const auto pli = cache.Get(sets[s]);
    ASSERT_NE(pli, nullptr);
    EXPECT_EQ(pli->DistinctCount(), distinct[s]);
  });
  // Each iteration probes `cache` exactly once, so the counters add up
  // even under concurrent eviction.
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits") +
                ScopeValue(scope, "pli_cache.misses"),
            static_cast<int64_t>(sets.size()) * 3);
}

}  // namespace
}  // namespace muds
