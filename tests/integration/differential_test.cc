// The central correctness argument of this reproduction: on randomized
// relations spanning many shapes, every FD/UCC algorithm must agree with
// the reference profiler (testing/reference.h), and all algorithms must
// agree with each other.

#include <gtest/gtest.h>

#include "core/muds.h"
#include "core/profiler.h"
#include "data/preprocess.h"
#include "fd/fd_util.h"
#include "fd/fun.h"
#include "fd/tane.h"
#include "test_util.h"
#include "testing/reference.h"
#include "ucc/ducc.h"

namespace muds {
namespace {

struct Shape {
  int cols;
  int rows;
  int max_cardinality;
};

// Row/column/cardinality regimes: skewed-low cardinality (FDs with large
// left-hand sides), high cardinality (keys everywhere), narrow, wide, tiny.
// The {6..8 cols, ~9..15 rows, card 2..4} entries are the adversarial
// regime where dense overlapping minimal UCCs produce cross-UCC FDs — the
// shapes on which the paper's shadowed-FD reconstruction provably misses
// results (see MudsTest.PaperShadowedReconstructionIsIncomplete).
const Shape kShapes[] = {
    {2, 10, 3},  {3, 20, 2},  {4, 16, 3},  {4, 50, 10}, {5, 25, 2},
    {5, 40, 4},  {6, 30, 3},  {6, 12, 8},  {7, 35, 3},  {7, 60, 2},
    {8, 20, 2},  {5, 5, 5},   {3, 100, 2}, {6, 80, 6},  {4, 8, 1},
    {7, 9, 3},   {6, 10, 4},  {7, 13, 4},  {8, 15, 2},  {6, 12, 3},
    {7, 31, 4},  {8, 9, 3},   {5, 11, 2},
};

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllFdAlgorithmsMatchBruteForce) {
  const int seed = GetParam();
  const Shape& shape = kShapes[static_cast<size_t>(seed) % std::size(kShapes)];
  Relation raw = RandomRelation(static_cast<uint64_t>(seed), shape.cols,
                                shape.rows, shape.max_cardinality);
  Relation r = DeduplicateRows(raw).relation;

  const std::vector<Fd> expected_fds = ReferenceProfiler::DiscoverFds(r);
  const std::vector<ColumnSet> expected_uccs =
      ReferenceProfiler::DiscoverUccs(r);

  // TANE.
  FdDiscoveryResult tane = Tane::Discover(r);
  EXPECT_EQ(tane.fds, expected_fds) << "TANE fds, seed " << seed;
  EXPECT_EQ(tane.uccs, expected_uccs) << "TANE uccs, seed " << seed;

  // FUN.
  FdDiscoveryResult fun = Fun::Discover(r);
  EXPECT_EQ(fun.fds, expected_fds) << "FUN fds, seed " << seed;
  EXPECT_EQ(fun.uccs, expected_uccs) << "FUN uccs, seed " << seed;

  // MUDS (default: exhaustive completion).
  EngineConfig muds_config;
  muds_config.seed = static_cast<uint64_t>(seed) + 1;
  MudsResult muds = Muds::Run(r, muds_config);
  EXPECT_EQ(muds.fds, expected_fds) << "MUDS fds, seed " << seed;
  EXPECT_EQ(muds.uccs, expected_uccs) << "MUDS uccs, seed " << seed;

  // Without the knowledge-pruning ablation the result must be identical.
  MudsOptions unpruned;
  unpruned.shadowed_knowledge_pruning = false;
  MudsResult muds_unpruned = Muds::Run(r, muds_config, unpruned);
  EXPECT_EQ(muds_unpruned.fds, expected_fds)
      << "MUDS(no knowledge pruning) fds, seed " << seed;
}

TEST_P(DifferentialTest, FdOutputsHoldByDefinitionAndAreMinimal) {
  const int seed = GetParam();
  const Shape& shape =
      kShapes[static_cast<size_t>(seed + 7) % std::size(kShapes)];
  Relation r = DeduplicateRows(RandomRelation(static_cast<uint64_t>(seed) + 1000,
                                              shape.cols, shape.rows,
                                              shape.max_cardinality))
                   .relation;
  MudsResult muds = Muds::Run(r);
  for (const Fd& fd : muds.fds) {
    EXPECT_TRUE(CheckFdByDefinition(r, fd.lhs, fd.rhs))
        << "invalid FD, seed " << seed;
    for (int c = fd.lhs.First(); c >= 0; c = fd.lhs.NextAtLeast(c + 1)) {
      EXPECT_FALSE(CheckFdByDefinition(r, fd.lhs.Without(c), fd.rhs))
          << "non-minimal FD, seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1, 76));

// The three Profile() algorithms must produce identical metadata.
class ProfilerAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfilerAgreementTest, AlgorithmsAgree) {
  const int seed = GetParam();
  const Shape& shape =
      kShapes[static_cast<size_t>(seed * 3) % std::size(kShapes)];
  Relation r = RandomRelation(static_cast<uint64_t>(seed) + 5000, shape.cols,
                              shape.rows, shape.max_cardinality);

  ProfileOptions options;
  options.algorithm = Algorithm::kBaseline;
  ProfilingResult baseline = ProfileRelation(r, options);
  options.algorithm = Algorithm::kHolisticFun;
  ProfilingResult hfun = ProfileRelation(r, options);
  options.algorithm = Algorithm::kMuds;
  ProfilingResult muds = ProfileRelation(r, options);

  EXPECT_EQ(baseline.inds, hfun.inds);
  EXPECT_EQ(baseline.inds, muds.inds);
  EXPECT_EQ(baseline.uccs, hfun.uccs);
  EXPECT_EQ(baseline.uccs, muds.uccs);
  EXPECT_EQ(baseline.fds, hfun.fds);
  EXPECT_EQ(baseline.fds, muds.fds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfilerAgreementTest,
                         ::testing::Range(1, 26));

}  // namespace
}  // namespace muds
