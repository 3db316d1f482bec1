#include "pli/position_list_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/relation.h"
#include "pli/pli_cache.h"
#include "test_util.h"

namespace muds {
namespace {

// Relation from §2.2-style examples:
//   A B C
//   a 1 x
//   a 1 y
//   b 2 x
//   b 2 y
//   c 3 x
Relation SampleRelation() {
  return Relation::FromRows({"A", "B", "C"},
                            {{"a", "1", "x"},
                             {"a", "1", "y"},
                             {"b", "2", "x"},
                             {"b", "2", "y"},
                             {"c", "3", "x"}});
}

TEST(PliTest, FromColumnStripsSingletons) {
  Relation r = SampleRelation();
  Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  // Clusters {0,1} and {2,3}; the singleton {4} is stripped.
  EXPECT_EQ(pli.NumClusters(), 2);
  EXPECT_EQ(pli.NumNonSingletonRows(), 4);
  EXPECT_EQ(pli.DistinctCount(), 3);
  EXPECT_FALSE(pli.IsUnique());
}

TEST(PliTest, UniqueColumn) {
  Relation r = Relation::FromRows({"K"}, {{"1"}, {"2"}, {"3"}});
  Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  EXPECT_TRUE(pli.IsUnique());
  EXPECT_EQ(pli.NumClusters(), 0);
  EXPECT_EQ(pli.DistinctCount(), 3);
}

TEST(PliTest, ConstantColumn) {
  Relation r = Relation::FromRows({"C"}, {{"k"}, {"k"}, {"k"}});
  Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  EXPECT_EQ(pli.NumClusters(), 1);
  EXPECT_EQ(pli.DistinctCount(), 1);
}

TEST(PliTest, ForEmptySet) {
  Pli pli = Pli::ForEmptySet(5);
  EXPECT_EQ(pli.NumClusters(), 1);
  EXPECT_EQ(pli.DistinctCount(), 1);
  EXPECT_FALSE(pli.IsUnique());
  // Degenerate relations: 0 or 1 rows make even the empty set unique.
  EXPECT_TRUE(Pli::ForEmptySet(1).IsUnique());
  EXPECT_TRUE(Pli::ForEmptySet(0).IsUnique());
}

TEST(PliTest, IntersectMatchesDirectConstruction) {
  Relation r = SampleRelation();
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  Pli c = Pli::FromColumn(r.GetColumn(2), r.NumRows());
  Pli ac = a.Intersect(c);
  // AC projections: (a,x),(a,y),(b,x),(b,y),(c,x) — all distinct.
  EXPECT_TRUE(ac.IsUnique());
  EXPECT_EQ(ac.DistinctCount(), 5);

  Pli b = Pli::FromColumn(r.GetColumn(1), r.NumRows());
  Pli ab = a.Intersect(b);
  // A and B partition rows identically.
  EXPECT_EQ(ab.NumClusters(), 2);
  EXPECT_EQ(ab.DistinctCount(), 3);
}

TEST(PliTest, IntersectIsCommutative) {
  Relation r = SampleRelation();
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  Pli c = Pli::FromColumn(r.GetColumn(2), r.NumRows());
  Pli ac = a.Intersect(c);
  Pli ca = c.Intersect(a);
  EXPECT_EQ(ac.DistinctCount(), ca.DistinctCount());
  EXPECT_EQ(ac.NumClusters(), ca.NumClusters());
}

TEST(PliTest, RefinesDetectsFds) {
  Relation r = SampleRelation();
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  // A -> B holds (a↦1, b↦2, c↦3); A -> C does not (rows 0,1 differ in C).
  EXPECT_TRUE(a.Refines(r.GetColumn(1)));
  EXPECT_FALSE(a.Refines(r.GetColumn(2)));
  // The empty-set PLI refines only constant columns.
  Pli empty = Pli::ForEmptySet(r.NumRows());
  EXPECT_FALSE(empty.Refines(r.GetColumn(0)));
}

TEST(PliTest, FlatLayoutExposesClustersAsSpans) {
  Relation r = SampleRelation();
  Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  ASSERT_EQ(pli.NumClusters(), 2);
  // CSR invariants: offsets has NumClusters()+1 entries bracketing rows.
  ASSERT_EQ(pli.offsets().size(), 3u);
  EXPECT_EQ(pli.offsets().front(), 0u);
  EXPECT_EQ(pli.offsets().back(), pli.rows().size());
  // Clusters appear in code order with ascending rows: {0,1} then {2,3}.
  const std::span<const RowId> first = pli.cluster(0);
  const std::span<const RowId> second = pli.cluster(1);
  EXPECT_EQ(std::vector<RowId>(first.begin(), first.end()),
            (std::vector<RowId>{0, 1}));
  EXPECT_EQ(std::vector<RowId>(second.begin(), second.end()),
            (std::vector<RowId>{2, 3}));
}

TEST(PliTest, ForEmptySetListsAllRowsInOrder) {
  Pli pli = Pli::ForEmptySet(4);
  ASSERT_EQ(pli.NumClusters(), 1);
  const std::span<const RowId> all = pli.cluster(0);
  EXPECT_EQ(std::vector<RowId>(all.begin(), all.end()),
            (std::vector<RowId>{0, 1, 2, 3}));
}

TEST(PliTest, MemoryBytesTracksStorage) {
  Relation r = SampleRelation();
  Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  // At least the object itself plus the flat row and offset arrays.
  EXPECT_GE(pli.MemoryBytes(),
            sizeof(Pli) + pli.rows().size() * sizeof(RowId) +
                pli.offsets().size() * sizeof(uint32_t));
  // A unique PLI still reports the empty CSR skeleton.
  Relation unique = Relation::FromRows({"K"}, {{"1"}, {"2"}, {"3"}});
  Pli u = Pli::FromColumn(unique.GetColumn(0), unique.NumRows());
  EXPECT_GE(u.MemoryBytes(), sizeof(Pli));
}

TEST(PliTest, RefinesAllMatchesRefinesPerColumn) {
  Relation r = SampleRelation();
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  std::vector<const Column*> columns = {&r.GetColumn(1), &r.GetColumn(2),
                                        &r.GetColumn(0)};
  std::vector<uint8_t> valid;
  a.RefinesAll(columns, &valid);
  ASSERT_EQ(valid.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    EXPECT_EQ(valid[i] != 0, a.Refines(*columns[i])) << "column " << i;
  }
  EXPECT_TRUE(valid[2]);  // A trivially refines itself.
}

TEST(PliTest, NestedClusterCompatConstructor) {
  // The nested-vector constructor flattens into the same CSR layout.
  Pli pli(std::vector<Pli::Cluster>{{0, 1}, {2, 3}}, 5);
  EXPECT_EQ(pli.NumClusters(), 2);
  EXPECT_EQ(pli.NumNonSingletonRows(), 4);
  EXPECT_EQ(pli.DistinctCount(), 3);
}

TEST(PliTest, FillProbeTable) {
  Relation r = SampleRelation();
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  std::vector<int32_t> probe;
  a.FillProbeTable(&probe);
  ASSERT_EQ(probe.size(), 5u);
  EXPECT_EQ(probe[0], probe[1]);
  EXPECT_EQ(probe[2], probe[3]);
  EXPECT_NE(probe[0], probe[2]);
  EXPECT_EQ(probe[4], -1);  // Singleton cluster is stripped.
}

TEST(PliCacheTest, SinglesPrebuiltAndMultisBuiltOnDemand) {
  Relation r = SampleRelation();
  const MetricsScope scope;
  PliCache cache(r);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.intersects"), 0);
  cache.Get(ColumnSet::Single(0));
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 1);

  auto ac = cache.Get(ColumnSet::FromIndices({0, 2}));
  EXPECT_TRUE(ac->IsUnique());
  EXPECT_EQ(ScopeValue(scope, "pli_cache.intersects"), 1);
  // Second request hits the cache.
  cache.Get(ColumnSet::FromIndices({0, 2}));
  EXPECT_EQ(ScopeValue(scope, "pli_cache.intersects"), 1);
}

TEST(PliCacheTest, EmptySetPli) {
  Relation r = SampleRelation();
  PliCache cache(r);
  auto empty = cache.Get(ColumnSet());
  EXPECT_EQ(empty->DistinctCount(), 1);
}

TEST(PliCacheTest, PrefixesAreCached) {
  Relation r = SampleRelation();
  PliCache cache(r);
  cache.Get(ColumnSet::FromIndices({0, 1, 2}));
  const MetricsScope scope;
  cache.Get(ColumnSet::FromIndices({0, 1}));
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 1);
  cache.Get(ColumnSet::FromIndices({1, 2}));
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 1);
}

TEST(PliCacheTest, PutAndSize) {
  Relation r = SampleRelation();
  PliCache cache(r);
  const size_t initial = cache.Size();
  cache.Put(ColumnSet::FromIndices({1, 2}),
            std::make_shared<Pli>(
                Pli::FromColumn(r.GetColumn(1), r.NumRows())
                    .Intersect(Pli::FromColumn(r.GetColumn(2), r.NumRows()))));
  EXPECT_EQ(cache.Size(), initial + 1);
  const MetricsScope scope;
  cache.Get(ColumnSet::FromIndices({1, 2}));
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits"), 1);
}

// One column of `rows` rows cycling through `cardinality` values, so each
// value occurs rows / cardinality or one more times.
Relation CyclicColumn(int rows, int cardinality) {
  std::vector<std::vector<std::string>> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back({"v" + std::to_string(i % cardinality)});
  }
  return Relation::FromRows({"A"}, data);
}

bool DefaultHasSidecar(const Relation& r) {
  return Pli::FromColumn(r.GetColumn(0), r.NumRows()).HasBitmap();
}

// The one sidecar attach rule every engine builds with: 1..256 clusters
// and at least 64 rows.
TEST(PliSidecarRuleTest, AttachesFromSixtyFourRows) {
  EXPECT_EQ(Pli::kAutoSidecarMinRows, 64);
  EXPECT_FALSE(DefaultHasSidecar(CyclicColumn(63, 4)));
  EXPECT_TRUE(DefaultHasSidecar(CyclicColumn(64, 4)));
  EXPECT_FALSE(Pli::ForEmptySet(63).HasBitmap());
  EXPECT_TRUE(Pli::ForEmptySet(64).HasBitmap());
}

TEST(PliSidecarRuleTest, AttachesUpTo256Clusters) {
  const Relation at_limit = CyclicColumn(512, 256);
  const Relation over_limit = CyclicColumn(514, 257);
  EXPECT_EQ(Pli::FromColumn(at_limit.GetColumn(0), 512).NumClusters(), 256);
  EXPECT_EQ(Pli::FromColumn(over_limit.GetColumn(0), 514).NumClusters(), 257);
  EXPECT_TRUE(DefaultHasSidecar(at_limit));
  EXPECT_FALSE(DefaultHasSidecar(over_limit));
}

TEST(PliSidecarRuleTest, UniqueColumnHasNoSidecar) {
  const Relation unique = CyclicColumn(100, 100);
  EXPECT_EQ(Pli::FromColumn(unique.GetColumn(0), 100).NumClusters(), 0);
  EXPECT_FALSE(DefaultHasSidecar(unique));
}

TEST(PliSidecarRuleTest, CachePinsAndAppendsFollowTheRule) {
  // 600 rows: a 4-value column (sidecar), a 300-cluster column and a
  // unique column (neither), and the one-cluster empty-set PLI (sidecar).
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 600; ++i) {
    rows.push_back({std::to_string(i % 4), std::to_string(i % 300),
                    std::to_string(i)});
  }
  const Relation wide = Relation::FromRows({"A", "B", "C"}, rows);
  PliCache cache(wide);
  EXPECT_TRUE(cache.Get(ColumnSet::Single(0))->HasBitmap());
  EXPECT_FALSE(cache.Get(ColumnSet::Single(1))->HasBitmap());
  EXPECT_FALSE(cache.Get(ColumnSet::Single(2))->HasBitmap());
  EXPECT_TRUE(cache.Get(ColumnSet())->HasBitmap());

  // 63 rows: no pin carries a sidecar; one appended row crosses the
  // threshold, and a cache over the grown relation pins with sidecars.
  Relation short_relation = CyclicColumn(63, 4);
  {
    PliCache short_cache(short_relation);
    EXPECT_FALSE(short_cache.Get(ColumnSet::Single(0))->HasBitmap());
    EXPECT_FALSE(short_cache.Get(ColumnSet())->HasBitmap());
  }
  short_relation.AppendBatch(CyclicColumn(1, 4));
  ASSERT_EQ(short_relation.NumRows(), 64);
  PliCache grown_cache(short_relation);
  EXPECT_TRUE(grown_cache.Get(ColumnSet::Single(0))->HasBitmap());
  EXPECT_TRUE(grown_cache.Get(ColumnSet())->HasBitmap());
}

}  // namespace
}  // namespace muds
