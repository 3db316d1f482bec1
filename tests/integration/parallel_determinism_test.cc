// The parallel engine's contract: the discovered IND/UCC/FD sets are a pure
// function of the relation and the seed — never of the thread count or of
// scheduling. Every per-right-hand-side sub-lattice traversal derives its
// own seed, so running them concurrently must reproduce the sequential
// answer bit for bit.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/holistic_fun.h"
#include "core/muds.h"
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

// A run owner's one pool carries every engine, back to back, and each
// result equals the same engine run inline (null pool). kAuto picks HFUN
// for the eight-column relation.
TEST(ParallelDeterminismTest, OnePoolRunsEveryEngineBackToBack) {
  const Relation relation =
      DeduplicateRows(
          MakeCategorical(400, {3, 3, 4, 3, 2, 3, 4, 3}, 9, "composite"))
          .relation;
  EngineConfig config;
  config.seed = 9;
  ProfileOptions auto_options;
  static_cast<EngineConfig&>(auto_options) = config;
  auto_options.algorithm = Algorithm::kAuto;

  ThreadPool pool(3);
  const MudsResult muds = Muds::Run(relation, config, {}, &pool);
  const HolisticResult hfun = HolisticFun::Run(relation, config, &pool);
  const HolisticResult baseline = Baseline::Run(relation, config, &pool);
  const ProfilingResult chosen =
      ProfileDeduplicated(relation, auto_options, &pool);

  const auto expect_same = [](const auto& inline_run, const auto& pooled,
                              const char* engine) {
    EXPECT_EQ(inline_run.inds, pooled.inds) << engine;
    EXPECT_EQ(inline_run.uccs, pooled.uccs) << engine;
    EXPECT_EQ(inline_run.fds, pooled.fds) << engine;
  };
  expect_same(Muds::Run(relation, config), muds, "MUDS");
  expect_same(HolisticFun::Run(relation, config), hfun, "HFUN");
  expect_same(Baseline::Run(relation, config), baseline, "baseline");
  const ProfilingResult chosen_inline =
      ProfileDeduplicated(relation, auto_options, nullptr);
  EXPECT_EQ(chosen.algorithm_used, Algorithm::kHolisticFun);
  EXPECT_EQ(chosen_inline.algorithm_used, Algorithm::kHolisticFun);
  expect_same(chosen_inline, chosen, "auto");
}

TEST(ParallelDeterminismTest, ReportsThreadCountCounter) {
  const Relation relation = MakeUniprotLike(200, 6, 1);
  const ProfilingResult result = Profile(relation, Algorithm::kMuds, 4, 1);
  EXPECT_EQ(result.num_threads_used, 4);
}

}  // namespace
}  // namespace muds
