#include "ucc/ducc.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "data/preprocess.h"
#include "test_util.h"
#include "testing/reference.h"

namespace muds {
namespace {

std::vector<ColumnSet> RunDucc(const Relation& relation, uint64_t seed = 1) {
  PliCache cache(relation);
  Ducc::Options options;
  options.seed = seed;
  return Ducc::Discover(relation, &cache, options);
}

TEST(DuccTest, SingleUniqueColumn) {
  Relation r = Relation::FromRows(
      {"K", "A"}, {{"1", "x"}, {"2", "x"}, {"3", "y"}});
  EXPECT_EQ(RunDucc(r), (std::vector<ColumnSet>{ColumnSet::Single(0)}));
}

TEST(DuccTest, PairKey) {
  Relation r = Relation::FromRows(
      {"A", "B"}, {{"1", "1"}, {"1", "2"}, {"2", "1"}, {"2", "2"}});
  EXPECT_EQ(RunDucc(r),
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1})}));
}

TEST(DuccTest, MultipleMinimalUccs) {
  // A unique; BC unique; B, C alone not unique.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "x", "p"},
                                   {"2", "x", "q"},
                                   {"3", "y", "p"},
                                   {"4", "y", "q"}});
  EXPECT_EQ(RunDucc(r), (std::vector<ColumnSet>{
                            ColumnSet::Single(0),
                            ColumnSet::FromIndices({1, 2})}));
}

TEST(DuccTest, ConstantColumnsNeverInMinimalUccs) {
  Relation r = Relation::FromRows({"C", "K"},
                                  {{"k", "1"}, {"k", "2"}, {"k", "3"}});
  EXPECT_EQ(RunDucc(r), (std::vector<ColumnSet>{ColumnSet::Single(1)}));
}

TEST(DuccTest, SingleRowRelationHasEmptyUcc) {
  Relation r = Relation::FromRows({"A", "B"}, {{"1", "2"}});
  EXPECT_EQ(RunDucc(r), (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(DuccTest, EmptyRelationHasEmptyUcc) {
  Relation r = Relation::FromRows({"A"}, {});
  EXPECT_EQ(RunDucc(r), (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(DuccTest, WholeRelationIsTheOnlyKey) {
  // Only all three columns together are unique.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "1"},
                                   {"1", "1", "2"},
                                   {"1", "2", "1"},
                                   {"2", "1", "1"}});
  EXPECT_EQ(RunDucc(r),
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1, 2})}));
}

// Runs DUCC on `relation` and returns how many PLI intersects it made.
int64_t DuccIntersects(const Relation& relation) {
  PliCache cache(relation);
  const MetricsScope scope;
  Ducc::Discover(relation, &cache);
  return ScopeValue(scope, "pli_cache.intersects");
}

TEST(DuccTest, DedupCertifiesTheActiveSetWithoutIntersects) {
  // Every row of the 2 x 2 x 2 product: only all three columns are unique,
  // and every proper subset has fewer value combinations than rows. The
  // cardinality bound refutes the subsets and dedup already proved the
  // whole set, so no PLI is ever intersected.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 8; ++i) {
    rows.push_back({std::to_string(i & 1), std::to_string((i >> 1) & 1),
                    std::to_string(i >> 2)});
  }
  const Relation r = Relation::FromRows({"A", "B", "C"}, rows);
  const std::vector<ColumnSet> uccs = RunDucc(r);
  EXPECT_EQ(uccs, ReferenceProfiler::DiscoverUccs(r));
  EXPECT_EQ(uccs, std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1, 2})});
  EXPECT_EQ(DuccIntersects(r), 0);
}

TEST(DuccTest, DedupCertifiesOnlyTheActiveColumns) {
  // The constant column is in no minimal UCC; the set known unique is the
  // active {A, B}, which still needs no intersect.
  const Relation r = Relation::FromRows(
      {"K", "A", "B"},
      {{"k", "1", "1"}, {"k", "1", "2"}, {"k", "2", "1"}, {"k", "2", "2"}});
  const std::vector<ColumnSet> uccs = RunDucc(r);
  EXPECT_EQ(uccs, ReferenceProfiler::DiscoverUccs(r));
  EXPECT_EQ(uccs, std::vector<ColumnSet>{ColumnSet::FromIndices({1, 2})});
  EXPECT_EQ(DuccIntersects(r), 0);
}

#ifndef NDEBUG
TEST(DuccDeathTest, DuplicateRowsTripThePrecondition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Relation r =
      Relation::FromRows({"A", "B"}, {{"1", "x"}, {"2", "y"}, {"1", "x"}});
  EXPECT_DEATH(RunDucc(r), "IsDuplicateFree");
}
#endif

TEST(DuccTest, StatsAreReported) {
  Relation r = RandomRelation(3, 5, 40, 6);
  Relation deduped = DeduplicateRows(r).relation;
  PliCache cache(deduped);
  const MetricsScope scope;
  Ducc::Discover(deduped, &cache);
  const MetricsSnapshot metrics = scope.run()->Snapshot();
  EXPECT_GT(metrics::ValueOf(metrics, "ducc.uniqueness_checks"), 0);
  EXPECT_GT(metrics::ValueOf(metrics, "ducc.walk_steps"), 0);
}

TEST(DuccTest, SeedDoesNotChangeTheResult) {
  Relation r = DeduplicateRows(RandomRelation(11, 6, 60, 4)).relation;
  const auto reference = RunDucc(r, 1);
  for (uint64_t seed = 2; seed <= 8; ++seed) {
    EXPECT_EQ(RunDucc(r, seed), reference) << "seed " << seed;
  }
}

TEST(DuccTest, MatchesBruteForceOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    // Mix of shapes: narrow/wide, low/high cardinality.
    const int cols = 2 + static_cast<int>(seed % 6);
    const int rows = 5 + static_cast<int>((seed * 13) % 60);
    const int max_card = 1 + static_cast<int>(seed % 9);
    Relation r = DeduplicateRows(
                     RandomRelation(seed, cols, rows, max_card))
                     .relation;
    EXPECT_EQ(RunDucc(r, seed), ReferenceProfiler::DiscoverUccs(r))
        << "seed " << seed << " cols " << cols << " rows " << rows;
  }
}

TEST(DuccTest, ResultsAreAnAntichainOfVerifiedUccs) {
  Relation r = DeduplicateRows(RandomRelation(77, 7, 80, 5)).relation;
  PliCache cache(r);
  const auto uccs = Ducc::Discover(r, &cache);
  for (const ColumnSet& u : uccs) {
    EXPECT_TRUE(cache.Get(u)->IsUnique()) << u.ToString();
    for (int c = u.First(); c >= 0; c = u.NextAtLeast(c + 1)) {
      EXPECT_FALSE(cache.Get(u.Without(c))->IsUnique())
          << "non-minimal: " << u.ToString();
    }
    for (const ColumnSet& other : uccs) {
      if (u != other) EXPECT_FALSE(u.IsSubsetOf(other));
    }
  }
}

}  // namespace
}  // namespace muds
