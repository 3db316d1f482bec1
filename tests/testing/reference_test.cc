#include "testing/reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "data/preprocess.h"
#include "data/relation.h"
#include "setops/column_set.h"

namespace muds {
namespace {

Relation Abc(const std::vector<std::vector<std::string>>& rows) {
  return Relation::FromRows({"A", "B", "C"}, rows, "t");
}

TEST(ReferenceProfilerTest, HandBuiltRelation) {
  // A is a key, C is constant, B is a coarsening of A.
  const Relation r = Abc({{"1", "x", "k"},
                          {"2", "x", "k"},
                          {"3", "y", "k"},
                          {"4", "y", "k"}});
  const ReferenceResult result = ReferenceProfiler::Profile(r);

  EXPECT_TRUE(result.inds.empty());
  ASSERT_EQ(result.uccs.size(), 1u);
  EXPECT_EQ(result.uccs[0], ColumnSet::FromIndices({0}));

  // A → B (coarsening), ∅ → C (constant); nothing determines A.
  const std::vector<Fd> expected = {{ColumnSet::FromIndices({0}), 1},
                                    {ColumnSet(), 2}};
  EXPECT_EQ(result.fds, expected);
}

TEST(ReferenceProfilerTest, UnaryIndOnSharedValues) {
  const Relation r = Relation::FromRows(
      {"small", "big"},
      {{"a", "a"}, {"b", "b"}, {"a", "c"}, {"b", "a"}}, "t");
  const std::vector<Ind> inds = ReferenceProfiler::DiscoverInds(r);
  // {a,b} ⊆ {a,b,c} but not the reverse.
  const std::vector<Ind> expected = {{0, 1}};
  EXPECT_EQ(inds, expected);
}

TEST(ReferenceProfilerTest, CompositeKeyIsMinimal) {
  // Neither A nor B is unique alone, AB together is.
  const Relation r = Abc({{"1", "1", "u"},
                          {"1", "2", "v"},
                          {"2", "1", "w"},
                          {"2", "2", "u"}});
  const std::vector<ColumnSet> uccs =
      ReferenceProfiler::DiscoverUccs(DeduplicateRows(r).relation);
  EXPECT_NE(std::find(uccs.begin(), uccs.end(), ColumnSet::FromIndices({0, 1})),
            uccs.end());
  for (const ColumnSet& ucc : uccs) {
    EXPECT_GE(ucc.Count(), 2) << "no single column is unique here";
  }
}

TEST(ReferenceProfilerTest, DegenerateRelations) {
  // Fewer than two rows: the empty set is the single minimal UCC, and
  // every column is constant (∅ → A).
  const Relation one_row = Abc({{"1", "2", "3"}});
  const ReferenceResult result = ReferenceProfiler::Profile(one_row);
  ASSERT_EQ(result.uccs.size(), 1u);
  EXPECT_TRUE(result.uccs[0].Empty());
  ASSERT_EQ(result.fds.size(), 3u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(result.fds[static_cast<size_t>(c)].lhs.Empty());
    EXPECT_EQ(result.fds[static_cast<size_t>(c)].rhs, c);
  }
  // All columns trivially include each other (singleton value sets are
  // equal only when the values match; here they differ).
  EXPECT_TRUE(result.inds.empty());
}

TEST(ReferenceProfilerTest, ProfileDeduplicatesBeforeUccAndFd) {
  // With the duplicate row kept, no UCC could exist; the §3 contract says
  // Profile removes it first, leaving two distinct rows where both A and B
  // are keys.
  const Relation r = Abc({{"1", "x", "k"},
                          {"2", "y", "k"},
                          {"2", "y", "k"}});
  const ReferenceResult result = ReferenceProfiler::Profile(r);
  const std::vector<ColumnSet> expected = {ColumnSet::FromIndices({0}),
                                           ColumnSet::FromIndices({1})};
  EXPECT_EQ(result.uccs, expected);
}

TEST(ReferenceProfilerTest, HoldsChecksMatchDefinitions) {
  const Relation r = Abc({{"1", "x", "k"},
                          {"2", "x", "k"},
                          {"3", "y", "k"}});
  EXPECT_TRUE(ReferenceProfiler::HoldsUcc(r, ColumnSet::FromIndices({0})));
  EXPECT_FALSE(ReferenceProfiler::HoldsUcc(r, ColumnSet::FromIndices({1})));
  EXPECT_TRUE(ReferenceProfiler::HoldsFd(r, ColumnSet::FromIndices({0}), 1));
  EXPECT_FALSE(ReferenceProfiler::HoldsFd(r, ColumnSet::FromIndices({1}), 0));
  EXPECT_TRUE(ReferenceProfiler::HoldsFd(r, ColumnSet(), 2));
  EXPECT_FALSE(ReferenceProfiler::HoldsInd(r, 0, 1));
}

}  // namespace
}  // namespace muds
