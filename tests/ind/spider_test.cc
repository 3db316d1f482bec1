#include "ind/spider.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "test_util.h"
#include "testing/reference.h"

namespace muds {
namespace {

TEST(SpiderTest, PaperTable1Example) {
  // Table 1: A = {w,x,y,z} (from w,w,x,y,z...), B = {x,z}, C = {w,x,z}
  // after duplicate elimination. Valid INDs: B ⊆ A, B ⊆ C, C ⊆ A.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"w", "z", "x"},
                                   {"w", "x", "x"},
                                   {"x", "z", "w"},
                                   {"y", "z", "z"},
                                   {"z", "x", "w"}});
  const auto inds = Spider::Discover(r);
  EXPECT_EQ(inds, (std::vector<Ind>{{1, 0}, {1, 2}, {2, 0}}));
}

TEST(SpiderTest, NoInclusions) {
  Relation r =
      Relation::FromRows({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  EXPECT_TRUE(Spider::Discover(r).empty());
}

TEST(SpiderTest, EqualColumnsIncludeEachOther) {
  Relation r =
      Relation::FromRows({"A", "B"}, {{"1", "1"}, {"2", "2"}, {"1", "2"}});
  const auto inds = Spider::Discover(r);
  EXPECT_EQ(inds, (std::vector<Ind>{{0, 1}, {1, 0}}));
}

TEST(SpiderTest, DuplicatesDoNotMatter) {
  // IND semantics are set-based: duplicates in the dependent are fine.
  Relation r = Relation::FromRows(
      {"A", "B"}, {{"1", "1"}, {"1", "2"}, {"1", "3"}, {"2", "9"}});
  const auto inds = Spider::Discover(r);
  EXPECT_EQ(inds, (std::vector<Ind>{{0, 1}}));
}

TEST(SpiderTest, EmptyRelationHasAllInds) {
  Relation r = Relation::FromRows({"A", "B", "C"}, {});
  // Vacuously, every column is included in every other.
  EXPECT_EQ(Spider::Discover(r).size(), 6u);
}

TEST(SpiderTest, SingleColumn) {
  Relation r = Relation::FromRows({"A"}, {{"1"}, {"2"}});
  EXPECT_TRUE(Spider::Discover(r).empty());
}

TEST(SpiderTest, TransitiveChain) {
  // A ⊆ B ⊆ C with strict containments.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "1"},
                                   {"1", "2", "2"},
                                   {"1", "2", "3"}});
  const auto inds = Spider::Discover(r);
  EXPECT_EQ(inds, (std::vector<Ind>{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(SpiderTest, MatchesBruteForceOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Relation r = RandomRelation(seed, /*cols=*/5, /*rows=*/30,
                                /*max_cardinality=*/8);
    EXPECT_EQ(Spider::Discover(r), ReferenceProfiler::DiscoverInds(r))
        << "seed " << seed;
  }
}

TEST(SpiderTest, WideRandomRelationsMatchBruteForce) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Relation r = RandomRelation(seed, /*cols=*/12, /*rows=*/50,
                                /*max_cardinality=*/5);
    EXPECT_EQ(Spider::Discover(r), ReferenceProfiler::DiscoverInds(r))
        << "seed " << seed;
  }
}

TEST(SpiderTest, SpillFallbackIsCountedNotPrinted) {
  const Relation r = RandomRelation(3, 4, 50, 5);
  SpiderExternalOptions external;
  external.spill.dir = "/nonexistent/muds/spill/dir";
  const MetricsScope scope;
  ::testing::internal::CaptureStderr();
  const std::vector<Ind> inds = Spider::DiscoverExternal(r, external);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(inds, Spider::Discover(r));
  EXPECT_EQ(ScopeValue(scope, "spider.spill_fallbacks"), 1);
}

}  // namespace
}  // namespace muds
