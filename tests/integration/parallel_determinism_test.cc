// The parallel engine's contract: the discovered IND/UCC/FD sets are a pure
// function of the relation and the seed — never of the thread count or of
// scheduling. Every per-right-hand-side sub-lattice traversal derives its
// own seed, so running them concurrently must reproduce the sequential
// answer bit for bit.

#include <gtest/gtest.h>

#include "core/profiler.h"
#include "data/preprocess.h"
#include "workload/generators.h"

namespace muds {
namespace {

ProfilingResult Profile(const Relation& relation, Algorithm algorithm,
                        int num_threads, uint64_t seed) {
  ProfileOptions options;
  options.algorithm = algorithm;
  options.seed = seed;
  options.num_threads = num_threads;
  return ProfileRelation(relation, options);
}

void ExpectIdenticalAcrossThreadCounts(const Relation& relation,
                                       Algorithm algorithm, uint64_t seed) {
  const ProfilingResult sequential = Profile(relation, algorithm, 1, seed);
  for (int threads : {2, 4}) {
    const ProfilingResult parallel =
        Profile(relation, algorithm, threads, seed);
    EXPECT_EQ(sequential.inds, parallel.inds) << "threads=" << threads;
    EXPECT_EQ(sequential.uccs, parallel.uccs) << "threads=" << threads;
    EXPECT_EQ(sequential.fds, parallel.fds) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, MudsOnNcvoterLike) {
  const Relation relation = MakeNcvoterLike(800, 12, 5);
  ExpectIdenticalAcrossThreadCounts(relation, Algorithm::kMuds, 5);
}

TEST(ParallelDeterminismTest, MudsOnRzHeavyRelation) {
  // One id column is the only minimal UCC, so nearly every column lies in
  // R\Z and the parallel calculateRZ path carries the run.
  std::vector<ColumnSpec> specs;
  ColumnSpec id;
  id.kind = ColumnSpec::Kind::kUnique;
  specs.push_back(id);
  for (int c = 0; c < 9; ++c) {
    ColumnSpec spec;
    spec.kind = ColumnSpec::Kind::kCategorical;
    spec.cardinality = 3 + (c % 3);
    specs.push_back(spec);
  }
  const Relation relation = MakeFromSpecs(600, specs, 11, "rz_heavy");
  ExpectIdenticalAcrossThreadCounts(relation, Algorithm::kMuds, 11);
}

TEST(ParallelDeterminismTest, MudsOnUniprotLikeWithDifferentSeeds) {
  const Relation relation = MakeUniprotLike(500, 9, 3);
  for (uint64_t seed : {1ull, 42ull}) {
    ExpectIdenticalAcrossThreadCounts(relation, Algorithm::kMuds, seed);
  }
}

TEST(ParallelDeterminismTest, HolisticFunParallelLoad) {
  const Relation relation = MakeNcvoterLike(600, 10, 7);
  ExpectIdenticalAcrossThreadCounts(relation, Algorithm::kHolisticFun, 7);
}

TEST(ParallelDeterminismTest, BaselineParallelPliBuild) {
  const Relation relation = MakeUniprotLike(400, 8, 9);
  ExpectIdenticalAcrossThreadCounts(relation, Algorithm::kBaseline, 9);
}

TEST(ParallelDeterminismTest, ZeroThreadsMatchesSequentialResult) {
  const Relation relation = MakeNcvoterLike(400, 10, 13);
  const ProfilingResult sequential =
      Profile(relation, Algorithm::kMuds, 1, 13);
  // 0 = hardware concurrency (whatever this machine has).
  const ProfilingResult hardware = Profile(relation, Algorithm::kMuds, 0, 13);
  EXPECT_EQ(sequential.inds, hardware.inds);
  EXPECT_EQ(sequential.uccs, hardware.uccs);
  EXPECT_EQ(sequential.fds, hardware.fds);
}

TEST(ParallelDeterminismTest, ReportsThreadCountCounter) {
  const Relation relation = MakeUniprotLike(200, 6, 1);
  const ProfilingResult result = Profile(relation, Algorithm::kMuds, 4, 1);
  EXPECT_EQ(result.num_threads_used, 4);
}

}  // namespace
}  // namespace muds
