#include "research/nary_ind.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace muds {
namespace {

TEST(NaryIndTest, UnaryLevelMatchesSpider) {
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "x"},
                                   {"2", "1", "y"},
                                   {"3", "2", "x"}});
  NaryIndFinder::Options options;
  options.max_arity = 1;
  const auto inds = NaryIndFinder::Discover(r, options);
  // B ⊆ A is the only unary IND ({1,2} ⊆ {1,2,3}).
  ASSERT_EQ(inds.size(), 1u);
  EXPECT_EQ(inds[0].dependent, (std::vector<int>{1}));
  EXPECT_EQ(inds[0].referenced, (std::vector<int>{0}));
}

TEST(NaryIndTest, FindsBinaryInd) {
  // (A,B) tuples {(1,x),(2,y)} ⊆ (C,D) tuples {(1,x),(2,y),(3,z)}.
  Relation r = Relation::FromRows({"A", "B", "C", "D"},
                                  {{"1", "x", "1", "x"},
                                   {"2", "y", "2", "y"},
                                   {"1", "x", "3", "z"}});
  NaryIndFinder::Options options;
  options.max_arity = 2;
  const auto inds = NaryIndFinder::Discover(r, options);
  const NaryInd expected{{0, 1}, {2, 3}};
  EXPECT_NE(std::find(inds.begin(), inds.end(), expected), inds.end());
}

TEST(NaryIndTest, TupleSemanticsAreStricterThanUnary) {
  // A ⊆ C and B ⊆ D hold, but (A,B) ⊆ (C,D) does not: the value
  // *combinations* never co-occur.
  Relation r = Relation::FromRows({"A", "B", "C", "D"},
                                  {{"1", "y", "1", "x"},
                                   {"2", "x", "2", "y"}});
  NaryIndFinder::Options options;
  options.max_arity = 2;
  const auto inds = NaryIndFinder::Discover(r, options);
  for (const NaryInd& ind : inds) {
    EXPECT_NE(ind, (NaryInd{{0, 1}, {2, 3}}));
  }
  // The unary constituents are there.
  EXPECT_NE(std::find(inds.begin(), inds.end(), (NaryInd{{0}, {2}})),
            inds.end());
  EXPECT_NE(std::find(inds.begin(), inds.end(), (NaryInd{{1}, {3}})),
            inds.end());
}

TEST(NaryIndTest, ValuesWithSeparatorsDoNotCollide) {
  // Tuple encoding must not confuse ("a:b", "c") with ("a", "b:c").
  Relation r = Relation::FromRows({"A", "B", "C", "D"},
                                  {{"a:b", "c", "a", "b:c"}});
  NaryIndFinder::Options options;
  options.max_arity = 2;
  const auto inds = NaryIndFinder::Discover(r, options);
  for (const NaryInd& ind : inds) {
    EXPECT_NE(ind, (NaryInd{{0, 1}, {2, 3}}));
    EXPECT_NE(ind, (NaryInd{{2, 3}, {0, 1}}));
  }
}

TEST(NaryIndTest, MatchesBruteForceOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Relation r = RandomRelation(seed, /*cols=*/5, /*rows=*/20,
                                /*max_cardinality=*/3);
    NaryIndFinder::Options options;
    options.max_arity = 3;
    EXPECT_EQ(NaryIndFinder::Discover(r, options),
              BruteForceNaryInd::Discover(r, 3))
        << "seed " << seed;
  }
}

TEST(NaryIndTest, StatsCountWork) {
  Relation r = RandomRelation(9, 5, 30, 2);
  NaryIndFinder::Options options;
  options.max_arity = 2;
  NaryIndFinder::Stats stats;
  NaryIndFinder::Discover(r, options, &stats);
  EXPECT_GE(stats.candidates_generated, stats.candidates_checked);
}

TEST(NaryIndTest, ToStringRendersBothSides) {
  const std::vector<std::string> names = {"A", "B", "C", "D"};
  EXPECT_EQ(ToString(NaryInd{{0, 1}, {2, 3}}, names), "(A,B) <= (C,D)");
}

TEST(NaryIndTest, EmptyRelationHasAllProperInds) {
  Relation r = Relation::FromRows({"A", "B", "C"}, {});
  NaryIndFinder::Options options;
  options.max_arity = 2;
  EXPECT_EQ(NaryIndFinder::Discover(r, options),
            BruteForceNaryInd::Discover(r, 2));
}

}  // namespace
}  // namespace muds
