#include "research/search_space.h"

#include <gtest/gtest.h>

namespace muds {
namespace {

// Direct summation Σ_{k=1..n} C(n,k)·(n-k), as §2.4 writes it.
int64_t FdCandidatesBySummation(int n) {
  int64_t total = 0;
  for (int k = 1; k <= n; ++k) {
    // C(n, k) iteratively.
    int64_t binom = 1;
    for (int i = 1; i <= k; ++i) {
      binom = binom * (n - i + 1) / i;
    }
    total += binom * (n - k);
  }
  return total;
}

TEST(SearchSpaceTest, SmallValues) {
  EXPECT_EQ(NumUnaryIndCandidates(0), 0);
  EXPECT_EQ(NumUnaryIndCandidates(1), 0);
  EXPECT_EQ(NumUnaryIndCandidates(2), 2);
  EXPECT_EQ(NumUnaryIndCandidates(5), 20);

  EXPECT_EQ(NumUccCandidates(0), 0);
  EXPECT_EQ(NumUccCandidates(1), 1);
  EXPECT_EQ(NumUccCandidates(5), 31);

  EXPECT_EQ(NumFdCandidates(0), 0);
  EXPECT_EQ(NumFdCandidates(1), 0);
  // Figure 1's five-column lattice: 5·2^4 - 5 = 75 edges above level 1.
  EXPECT_EQ(NumFdCandidates(5), 75);
}

TEST(SearchSpaceTest, ClosedFormMatchesTheSummation) {
  for (int n = 0; n <= 30; ++n) {
    EXPECT_EQ(NumFdCandidates(n), FdCandidatesBySummation(n)) << n;
  }
}

TEST(SearchSpaceTest, FdSpaceDominates) {
  // §2.4: "The search space for FDs clearly dominates the overall
  // discovery cost" and INDs are negligible.
  for (int n = 3; n <= 40; ++n) {
    EXPECT_GT(NumFdCandidates(n), NumUccCandidates(n)) << n;
    EXPECT_GT(NumUccCandidates(n), NumUnaryIndCandidates(n)) << n;
  }
  // The paper's motivating magnitude at ionosphere width (34 columns).
  EXPECT_EQ(NumUnaryIndCandidates(34), 34 * 33);
  EXPECT_GT(NumFdCandidates(34), int64_t{100000000000});
}

TEST(SearchSpaceTest, LargestSupportedWidth) {
  EXPECT_GT(NumUccCandidates(58), 0);
  EXPECT_GT(NumFdCandidates(58), NumUccCandidates(58));
}

}  // namespace
}  // namespace muds
