#include "research/demarchi.h"

#include <gtest/gtest.h>

#include "ind/spider.h"
#include "test_util.h"

namespace muds {
namespace {

TEST(DeMarchiIndTest, PaperTable1Example) {
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"w", "z", "x"},
                                   {"w", "x", "x"},
                                   {"x", "z", "w"},
                                   {"y", "z", "z"},
                                   {"z", "x", "w"}});
  EXPECT_EQ(DeMarchiInd::Discover(r),
            (std::vector<Ind>{{1, 0}, {1, 2}, {2, 0}}));
}

TEST(DeMarchiIndTest, ReportsIndexStats) {
  Relation r = RandomRelation(3, 5, 40, 6);
  DeMarchiInd::Stats stats;
  DeMarchiInd::Discover(r, &stats);
  EXPECT_GT(stats.index_entries, 0);
  EXPECT_GT(stats.intersections, 0);
}

TEST(DeMarchiIndTest, EmptyRelation) {
  Relation r = Relation::FromRows({"A", "B"}, {});
  EXPECT_EQ(DeMarchiInd::Discover(r).size(), 2u);
}

TEST(DeMarchiIndTest, AlwaysAgreesWithSpider) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const int cols = 2 + static_cast<int>(seed % 8);
    const int rows = 5 + static_cast<int>((seed * 17) % 80);
    const int card = 1 + static_cast<int>(seed % 10);
    Relation r = RandomRelation(seed, cols, rows, card);
    EXPECT_EQ(DeMarchiInd::Discover(r), Spider::Discover(r))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace muds
