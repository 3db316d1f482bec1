#include "research/ucc_inference.h"

#include <gtest/gtest.h>

#include "data/preprocess.h"
#include "fd/tane.h"
#include "test_util.h"
#include "ucc/ducc.h"

namespace muds {
namespace {

TEST(AttributeClosureTest, FollowsChains) {
  // A -> B, B -> C.
  const std::vector<Fd> fds = {{ColumnSet::Single(0), 1},
                               {ColumnSet::Single(1), 2}};
  EXPECT_EQ(AttributeClosure(ColumnSet::Single(0), fds, 4),
            ColumnSet::FromIndices({0, 1, 2}));
  EXPECT_EQ(AttributeClosure(ColumnSet::Single(1), fds, 4),
            ColumnSet::FromIndices({1, 2}));
  EXPECT_EQ(AttributeClosure(ColumnSet::Single(3), fds, 4),
            ColumnSet::Single(3));
}

TEST(AttributeClosureTest, EmptyLhsFdsSeedTheClosure) {
  // Constant column: ∅ -> 2.
  const std::vector<Fd> fds = {{ColumnSet(), 2}};
  EXPECT_EQ(AttributeClosure(ColumnSet(), fds, 3), ColumnSet::Single(2));
}

TEST(InferUccsFromFdsTest, TextbookSchema) {
  // R = {A, B, C, D} with A -> B, B -> C: the only minimal key is {A, D}.
  const std::vector<Fd> fds = {{ColumnSet::Single(0), 1},
                               {ColumnSet::Single(1), 2}};
  EXPECT_EQ(InferUccsFromFds(fds, 4),
            (std::vector<ColumnSet>{ColumnSet::FromIndices({0, 3})}));
}

TEST(InferUccsFromFdsTest, MultipleKeysThroughSubstitution) {
  // A <-> B (mutual) and AB determine C: both {A, D...}— concretely
  // R = {A, B, C}: A -> B, B -> A, A -> C. Minimal keys: {A} and {B}.
  const std::vector<Fd> fds = {{ColumnSet::Single(0), 1},
                               {ColumnSet::Single(1), 0},
                               {ColumnSet::Single(0), 2}};
  EXPECT_EQ(InferUccsFromFds(fds, 3),
            (std::vector<ColumnSet>{ColumnSet::Single(0),
                                    ColumnSet::Single(1)}));
}

TEST(InferUccsFromFdsTest, NoFdsMeansTheFullRelationIsTheKey) {
  EXPECT_EQ(InferUccsFromFds({}, 3),
            (std::vector<ColumnSet>{ColumnSet::FirstN(3)}));
}

TEST(InferUccsFromFdsTest, AllConstantMeansEmptyKey) {
  const std::vector<Fd> fds = {{ColumnSet(), 0}, {ColumnSet(), 1}};
  EXPECT_EQ(InferUccsFromFds(fds, 2),
            (std::vector<ColumnSet>{ColumnSet()}));
}

// §3.1's whole point, executable: minimal FDs (from TANE) imply exactly
// the minimal UCCs (from DUCC) on duplicate-free instances (Lemma 2).
class FdsFirstTest : public ::testing::TestWithParam<int> {};

TEST_P(FdsFirstTest, InferredUccsMatchDucc) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const int cols = 2 + static_cast<int>(seed % 6);
  const int rows = 5 + static_cast<int>((seed * 13) % 60);
  const int card = 1 + static_cast<int>(seed % 6);
  Relation r =
      DeduplicateRows(RandomRelation(seed, cols, rows, card)).relation;

  FdDiscoveryResult tane = Tane::Discover(r);
  PliCache cache(r);
  EXPECT_EQ(InferUccsFromFds(tane.fds, r.NumColumns()),
            Ducc::Discover(r, &cache))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdsFirstTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace muds
