// Out-of-core differential test: a dataset whose PLI working set is an
// order of magnitude larger than the cache budget must profile to
// completion with the spill tier on, and the discovered IND/UCC/FD sets
// must be bit-identical to the unlimited-budget in-memory run — across
// every engine, with spill traffic actually observed.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "ind/spider.h"
#include "workload/generators.h"

namespace muds {
namespace {

SpillConfig TempSpill() {
  SpillConfig spill;
  spill.dir = std::filesystem::temp_directory_path().string();
  return spill;
}

int64_t Counter(const ProfilingResult& result, const std::string& name) {
  for (const auto& [key, value] : result.metrics) {
    if (key == name) return value;
  }
  return -1;
}

void ExpectSameSets(const ProfilingResult& a, const ProfilingResult& b,
                    const char* label) {
  EXPECT_EQ(a.inds, b.inds) << label;
  EXPECT_EQ(a.uccs, b.uccs) << label;
  EXPECT_EQ(a.fds, b.fds) << label;
}

TEST(OutOfCoreTest, SpilledRunMatchesInMemoryRunOnOversizedInput) {
  // ~30k rows x 8 low-cardinality columns: the single-column PLIs alone
  // hold ~30k row ids each (plus sidecars), so the derived working set of
  // the lattice walk is far beyond 10x the 16 KiB budget below.
  const Relation relation =
      MakeCategorical(30000, {6, 4, 8, 3, 5, 7, 2, 9}, 41, "out_of_core");
  constexpr size_t kTinyBudget = 16 << 10;

  for (Algorithm algorithm :
       {Algorithm::kMuds, Algorithm::kHolisticFun, Algorithm::kBaseline}) {
    ProfileOptions in_memory;
    in_memory.algorithm = algorithm;
    in_memory.pli_budget_bytes = 0;  // Unlimited.
    const ProfilingResult reference = ProfileRelation(relation, in_memory);

    ProfileOptions out_of_core = in_memory;
    out_of_core.pli_budget_bytes = kTinyBudget;
    out_of_core.spill = TempSpill();
    const ProfilingResult spilled = ProfileRelation(relation, out_of_core);
    ExpectSameSets(reference, spilled, AlgorithmName(algorithm));

    // The constrained run must actually have gone through the cold tier
    // (MUDS and the baseline own a PLI cache; Holistic FUN only reroutes
    // SPIDER, whose external path is asserted separately below).
    if (algorithm != Algorithm::kHolisticFun) {
      EXPECT_GT(Counter(spilled, "pli_cache.spill_writes"), 0)
          << AlgorithmName(algorithm);
      EXPECT_GT(Counter(spilled, "pli_cache.spill_reloads"), 0)
          << AlgorithmName(algorithm);
    }
  }
}

TEST(OutOfCoreTest, ExternalSpiderMatchesInMemorySpider) {
  for (uint64_t seed : {3u, 19u}) {
    const AdversarialParams params = SampleAdversarialParams(seed, 8, 1500);
    const Relation relation = MakeAdversarial(params);
    const std::vector<Ind> expected = Spider::Discover(relation);

    SpiderExternalOptions options;
    options.spill = TempSpill();
    // A small run buffer forces repeated refills and window slides.
    options.run_buffer_bytes = 256;
    EXPECT_EQ(Spider::DiscoverExternal(relation, options), expected)
        << "seed " << seed;
  }
}

TEST(OutOfCoreTest, ParallelSpilledRunIsDeterministic) {
  const Relation relation =
      MakeCategorical(8000, {5, 4, 6, 3, 7, 2}, 13, "oc_parallel");
  ProfileOptions options;
  options.pli_budget_bytes = 16 << 10;
  options.spill = TempSpill();
  options.num_threads = 1;
  const ProfilingResult sequential = ProfileRelation(relation, options);
  options.num_threads = 8;
  const ProfilingResult parallel = ProfileRelation(relation, options);
  ExpectSameSets(sequential, parallel, "threads=8");
}

}  // namespace
}  // namespace muds
