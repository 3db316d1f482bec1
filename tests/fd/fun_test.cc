#include "fd/fun.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/preprocess.h"
#include "fd/tane.h"
#include "test_util.h"
#include "testing/reference.h"

namespace muds {
namespace {

TEST(FunTest, SimpleKeyRelation) {
  Relation r = Relation::FromRows({"K", "A", "B"},
                                  {{"1", "x", "p"},
                                   {"2", "x", "p"},
                                   {"3", "y", "q"},
                                   {"4", "y", "p"}});
  FdDiscoveryResult result = Fun::Discover(r);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet::Single(0), 1},
                                         {ColumnSet::Single(0), 2}}));
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet::Single(0)}));
}

TEST(FunTest, FreeSetPruningStillFindsDeepFds) {
  // C is a function of (A, B); no smaller determinant exists.
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "p"},
                                   {"1", "2", "q"},
                                   {"2", "1", "q"},
                                   {"2", "2", "p"},
                                   {"3", "1", "p"},
                                   {"3", "2", "p"}});
  FdDiscoveryResult result = Fun::Discover(r);
  EXPECT_EQ(result.fds,
            (std::vector<Fd>{{ColumnSet::FromIndices({0, 1}), 2}}));
}

TEST(FunTest, MutuallyDeterminingColumns) {
  // A and B are bijective renamings of each other (and both are keys after
  // deduplication).
  Relation r = Relation::FromRows(
      {"A", "B"}, {{"a1", "b1"}, {"a2", "b2"}, {"a1", "b1"}, {"a3", "b3"}});
  Relation deduped = DeduplicateRows(r).relation;
  FdDiscoveryResult result = Fun::Discover(deduped);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet::Single(1), 0},
                                         {ColumnSet::Single(0), 1}}));
}

TEST(FunTest, ConstantAndDegenerateRelations) {
  Relation constant = Relation::FromRows({"C", "K"}, {{"k", "1"}, {"k", "2"}});
  EXPECT_EQ(Fun::Discover(constant).fds,
            (std::vector<Fd>{{ColumnSet(), 0}}));

  Relation single = Relation::FromRows({"A"}, {{"x"}});
  FdDiscoveryResult result = Fun::Discover(single);
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet(), 0}}));
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(FunTest, CardinalityInferenceAgreesWithTane) {
  // The two level-wise algorithms must produce identical results even
  // though FUN skips PLI intersections through inference.
  for (uint64_t seed = 400; seed < 440; ++seed) {
    const int cols = 3 + static_cast<int>(seed % 5);
    const int max_card = 2 + static_cast<int>(seed % 7);
    Relation r =
        DeduplicateRows(RandomRelation(seed, cols, 40, max_card)).relation;
    FdDiscoveryResult fun = Fun::Discover(r);
    FdDiscoveryResult tane = Tane::Discover(r);
    EXPECT_EQ(fun.fds, tane.fds) << "seed " << seed;
    EXPECT_EQ(fun.uccs, tane.uccs) << "seed " << seed;
  }
}

TEST(FunTest, FewerIntersectsThanTane) {
  // FUN's selling point (§2.3): cardinality inference avoids PLI work.
  // Aggregated over a workload mix it should never need more intersects.
  const MetricsScope scope;
  for (uint64_t seed = 500; seed < 520; ++seed) {
    Relation r = DeduplicateRows(RandomRelation(seed, 7, 60, 3)).relation;
    Fun::Discover(r);
    Tane::Discover(r);
  }
  const MetricsSnapshot run = scope.run()->Snapshot();
  EXPECT_GT(metrics::ValueOf(run, "fun.pli_intersects"), 0);
  EXPECT_LE(metrics::ValueOf(run, "fun.pli_intersects"),
            metrics::ValueOf(run, "tane.pli_intersects"));
}

TEST(FunTest, MatchesBruteForceOnWideRelations) {
  for (uint64_t seed = 600; seed < 612; ++seed) {
    Relation r = DeduplicateRows(RandomRelation(seed, 8, 30, 3)).relation;
    EXPECT_EQ(Fun::Discover(r).fds, ReferenceProfiler::DiscoverFds(r))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace muds
