#include "research/related_work.h"

#include <gtest/gtest.h>

#include "data/preprocess.h"
#include "test_util.h"
#include "testing/reference.h"
#include "ucc/ducc.h"

namespace muds {
namespace {

TEST(GordianStyleUccTest, SimpleRelations) {
  Relation key = Relation::FromRows(
      {"K", "A"}, {{"1", "x"}, {"2", "x"}, {"3", "y"}});
  EXPECT_EQ(GordianStyleUcc::Discover(key),
            (std::vector<ColumnSet>{ColumnSet::Single(0)}));

  Relation pair = Relation::FromRows(
      {"A", "B"}, {{"1", "1"}, {"1", "2"}, {"2", "1"}, {"2", "2"}});
  EXPECT_EQ(GordianStyleUcc::Discover(pair),
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 1})}));
}

TEST(GordianStyleUccTest, AllColumnsUniqueWhenNoPairAgrees) {
  Relation r = Relation::FromRows(
      {"A", "B"}, {{"1", "x"}, {"2", "y"}, {"3", "z"}});
  EXPECT_EQ(GordianStyleUcc::Discover(r),
            (std::vector<ColumnSet>{ColumnSet::Single(0),
                                    ColumnSet::Single(1)}));
}

TEST(GordianStyleUccTest, DegenerateRelations) {
  Relation single = Relation::FromRows({"A"}, {{"x"}});
  EXPECT_EQ(GordianStyleUcc::Discover(single),
            (std::vector<ColumnSet>{ColumnSet()}));
  Relation empty = Relation::FromRows({"A"}, {});
  EXPECT_EQ(GordianStyleUcc::Discover(empty),
            (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(GordianStyleUccTest, ReportsStats) {
  Relation r = DeduplicateRows(RandomRelation(4, 5, 40, 3)).relation;
  GordianStyleUcc::Stats stats;
  GordianStyleUcc::Discover(r, &stats);
  EXPECT_GT(stats.pairs_examined, 0);
  EXPECT_GT(stats.maximal_non_uccs, 0);
}

TEST(HcaStyleUccTest, SimpleRelations) {
  Relation key = Relation::FromRows(
      {"K", "A"}, {{"1", "x"}, {"2", "x"}, {"3", "y"}});
  EXPECT_EQ(HcaStyleUcc::Discover(key),
            (std::vector<ColumnSet>{ColumnSet::Single(0)}));
}

TEST(HcaStyleUccTest, StatisticalPruningSkipsHopelessChecks) {
  // Two binary columns over 10 rows: a pair with max 4 distinct values can
  // never be unique, so no uniqueness check may be spent on it.
  Relation r = DeduplicateRows(
                   Relation::FromRows({"A", "B", "K"},
                                      {{"0", "0", "1"},
                                       {"0", "1", "2"},
                                       {"1", "0", "3"},
                                       {"1", "1", "4"},
                                       {"0", "0", "5"},
                                       {"0", "1", "6"},
                                       {"1", "0", "7"},
                                       {"1", "1", "8"}}))
                   .relation;
  HcaStyleUcc::Stats stats;
  const auto uccs = HcaStyleUcc::Discover(r, &stats);
  EXPECT_EQ(uccs, (std::vector<ColumnSet>{ColumnSet::Single(2)}));
  EXPECT_GT(stats.statistically_pruned, 0);
}

TEST(HcaStyleUccTest, DegenerateRelations) {
  Relation single = Relation::FromRows({"A", "B"}, {{"x", "y"}});
  EXPECT_EQ(HcaStyleUcc::Discover(single),
            (std::vector<ColumnSet>{ColumnSet()}));
}

// The three UCC algorithm families (random walk, row-based, column-based)
// and the reference profiler must agree everywhere.
class UccAlgorithmAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(UccAlgorithmAgreementTest, AllFourAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const int cols = 2 + static_cast<int>(seed % 6);
  const int rows = 6 + static_cast<int>((seed * 11) % 50);
  const int card = 1 + static_cast<int>(seed % 5);
  Relation r =
      DeduplicateRows(RandomRelation(seed, cols, rows, card)).relation;

  const auto expected = ReferenceProfiler::DiscoverUccs(r);
  PliCache cache(r);
  EXPECT_EQ(Ducc::Discover(r, &cache), expected) << "DUCC seed " << seed;
  EXPECT_EQ(GordianStyleUcc::Discover(r), expected)
      << "Gordian seed " << seed;
  EXPECT_EQ(HcaStyleUcc::Discover(r), expected) << "HCA seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UccAlgorithmAgreementTest,
                         ::testing::Range(1, 41));

}  // namespace
}  // namespace muds
