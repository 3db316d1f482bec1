#include "fd/tane.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/preprocess.h"
#include "test_util.h"
#include "testing/reference.h"
#include "ucc/ducc.h"

namespace muds {
namespace {

TEST(TaneTest, SimpleKeyRelation) {
  // K unique and no other dependencies: K -> A, K -> B are the only FDs.
  Relation r = Relation::FromRows({"K", "A", "B"},
                                  {{"1", "x", "p"},
                                   {"2", "x", "p"},
                                   {"3", "y", "q"},
                                   {"4", "y", "p"}});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet::Single(0), 1},
                                         {ColumnSet::Single(0), 2}}));
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet::Single(0)}));
}

TEST(TaneTest, XorRelationHasSymmetricKeysAndFds) {
  // C = A xor B over a full 2x2 cross product: every pair of columns is a
  // key and determines the third column.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "p"},
                                   {"1", "2", "q"},
                                   {"2", "1", "q"},
                                   {"2", "2", "p"}});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds,
            (std::vector<Fd>{{ColumnSet::FromIndices({1, 2}), 0},
                             {ColumnSet::FromIndices({0, 2}), 1},
                             {ColumnSet::FromIndices({0, 1}), 2}}));
  EXPECT_EQ(result.uccs,
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1}),
                                    ColumnSet::FromIndices({0, 2}),
                                    ColumnSet::FromIndices({1, 2})}));
}

TEST(TaneTest, TransitiveChain) {
  // A -> B -> C (values chain); minimal FDs: A->B, A->C?, B->C.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"a1", "b1", "c1"},
                                   {"a2", "b1", "c1"},
                                   {"a3", "b2", "c1"},
                                   {"a4", "b3", "c2"}});
  FdDiscoveryResult result = Tane::Discover(r);
  // A unique -> A->B, A->C minimal; B->C holds.
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet::Single(0), 1},
                                         {ColumnSet::Single(0), 2},
                                         {ColumnSet::Single(1), 2}}));
}

TEST(TaneTest, CompositeLhs) {
  // Neither A nor B determines C, but AB does; AC and BC repeat, so AB is
  // the only key.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "p"},
                                   {"1", "2", "q"},
                                   {"2", "1", "q"},
                                   {"2", "2", "p"},
                                   {"3", "1", "p"},
                                   {"3", "2", "p"}});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds,
            (std::vector<Fd>{{ColumnSet::FromIndices({0, 1}), 2}}));
  EXPECT_EQ(result.uccs,
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1})}));
}

TEST(TaneTest, ConstantColumnsYieldEmptyLhsFds) {
  Relation r = Relation::FromRows({"C", "K"}, {{"k", "1"}, {"k", "2"}});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet(), 0}}));
}

TEST(TaneTest, SingleRowRelation) {
  Relation r = Relation::FromRows({"A", "B"}, {{"x", "y"}});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds,
            (std::vector<Fd>{{ColumnSet(), 0}, {ColumnSet(), 1}}));
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(TaneTest, EmptyRelation) {
  Relation r = Relation::FromRows({"A"}, {});
  FdDiscoveryResult result = Tane::Discover(r);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet(), 0}}));
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(TaneTest, ReportsWorkCounters) {
  Relation r = DeduplicateRows(RandomRelation(5, 6, 50, 4)).relation;
  const MetricsScope scope;
  Tane::Discover(r);
  const MetricsSnapshot run = scope.run()->Snapshot();
  EXPECT_GT(metrics::ValueOf(run, "tane.fd_checks"), 0);
  EXPECT_GT(metrics::ValueOf(run, "tane.pli_intersects"), 0);
}

TEST(TaneTest, UccsMatchDucc) {
  for (uint64_t seed = 200; seed < 230; ++seed) {
    Relation r = DeduplicateRows(RandomRelation(seed, 6, 40, 4)).relation;
    PliCache cache(r);
    EXPECT_EQ(Tane::Discover(r).uccs, Ducc::Discover(r, &cache))
        << "seed " << seed;
  }
}

TEST(TaneTest, MatchesBruteForceOnSkewedShapes) {
  // Extra sweep beyond the central differential test: very low and very
  // high cardinalities.
  for (uint64_t seed = 300; seed < 320; ++seed) {
    const int max_card = seed % 2 == 0 ? 2 : 12;
    Relation r =
        DeduplicateRows(RandomRelation(seed, 5, 45, max_card)).relation;
    EXPECT_EQ(Tane::Discover(r).fds, ReferenceProfiler::DiscoverFds(r))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace muds
