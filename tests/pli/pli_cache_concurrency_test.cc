// Concurrency contract of the sharded PliCache: concurrent Get/Put/Size and
// reads of its registry counters are safe, and racing builders of the same
// column set agree on one canonical shared_ptr (no divergent copies). Run
// under -DMUDS_SANITIZE=thread to have TSan check the claims.

#include "pli/pli_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

Relation TestRelation() {
  return MakeCategorical(500, {4, 3, 5, 2, 6, 3, 4, 2}, 17, "cache_test");
}

TEST(PliCacheConcurrencyTest, ParallelConstructionMatchesSequential) {
  const Relation relation = TestRelation();
  ThreadPool pool(4);
  PliCache sequential(relation);
  PliCache parallel(relation, PliCache::kDefaultBudgetBytes, &pool);
  ASSERT_EQ(sequential.Size(), parallel.Size());
  for (int c = 0; c < relation.NumColumns(); ++c) {
    const auto a = sequential.Get(ColumnSet::Single(c));
    const auto b = parallel.Get(ColumnSet::Single(c));
    EXPECT_EQ(a->NumClusters(), b->NumClusters());
    EXPECT_EQ(a->NumNonSingletonRows(), b->NumNonSingletonRows());
  }
}

TEST(PliCacheConcurrencyTest, ConcurrentGetReturnsCanonicalEntry) {
  const Relation relation = TestRelation();
  ThreadPool pool(4);
  PliCache cache(relation, PliCache::kDefaultBudgetBytes, &pool);

  // Many threads race to build overlapping multi-column sets; afterwards a
  // second look-up must hand back the exact pointer each thread received
  // (i.e. the cache committed one canonical entry per set).
  const int n = relation.NumColumns();
  std::vector<ColumnSet> sets;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      sets.push_back(ColumnSet::Single(a).With(b));
      for (int c = b + 1; c < n; ++c) {
        sets.push_back(ColumnSet::Single(a).With(b).With(c));
      }
    }
  }
  std::vector<std::shared_ptr<const Pli>> first(sets.size());
  pool.ParallelFor(0, static_cast<int64_t>(sets.size()), [&](int64_t i) {
    first[static_cast<size_t>(i)] = cache.Get(sets[static_cast<size_t>(i)]);
  });
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(cache.Get(sets[i]).get(), first[i].get())
        << sets[i].ToString();
  }
}

TEST(PliCacheConcurrencyTest, ConcurrentReadersOfCountersAreSafe) {
  const Relation relation = TestRelation();
  ThreadPool pool(4);
  const MetricsScope scope;
  PliCache cache(relation);
  std::atomic<int64_t> observed_max{0};
  pool.ParallelFor(0, 200, [&](int64_t i) {
    if (i % 4 == 0) {
      // Writers: build fresh multi-column PLIs.
      const int a = static_cast<int>(i) % relation.NumColumns();
      const int b = (a + 1 + static_cast<int>(i / 4)) % relation.NumColumns();
      if (a != b) cache.Get(ColumnSet::Single(a).With(b));
    } else {
      // Readers: counters must be readable mid-insertion.
      const int64_t intersects = ScopeValue(scope, "pli_cache.intersects");
      const int64_t size = static_cast<int64_t>(cache.Size());
      EXPECT_GE(intersects, 0);
      EXPECT_GE(size, relation.NumColumns() + 1);
      int64_t prev = observed_max.load();
      while (intersects > prev &&
             !observed_max.compare_exchange_weak(prev, intersects)) {
      }
    }
  });
  EXPECT_GE(ScopeValue(scope, "pli_cache.intersects"), observed_max.load());
}

TEST(PliCacheConcurrencyTest, PutKeepsFirstEntryOnRace) {
  const Relation relation = TestRelation();
  PliCache cache(relation);
  const ColumnSet key = ColumnSet::Single(0).With(1);
  const auto canonical = cache.Get(key);
  // A later Put of an equivalent (but distinct) PLI must not displace the
  // canonical entry — callers holding the old pointer and new callers must
  // agree.
  cache.Put(key, std::make_shared<Pli>(
                     cache.Get(ColumnSet::Single(0))
                         ->Intersect(*cache.Get(ColumnSet::Single(1)))));
  EXPECT_EQ(cache.Get(key).get(), canonical.get());
}

}  // namespace
}  // namespace muds
