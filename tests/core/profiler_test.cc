#include "core/profiler.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/metrics.h"
#include "test_util.h"

namespace muds {
namespace {

constexpr char kCsv[] =
    "K,A,B\n"
    "1,x,p\n"
    "2,x,p\n"
    "3,y,q\n"
    "4,y,p\n";

TEST(ProfilerTest, ProfileCsvStringMuds) {
  ProfileOptions options;
  options.algorithm = Algorithm::kMuds;
  auto result = ProfileCsvString(kCsv, options);
  ASSERT_TRUE(result.ok());
  const ProfilingResult& r = result.value();
  EXPECT_EQ(r.uccs, (std::vector<ColumnSet>{ColumnSet::Single(0)}));
  EXPECT_EQ(r.fds.size(), 2u);
  EXPECT_EQ(r.column_names, (std::vector<std::string>{"K", "A", "B"}));
  EXPECT_GT(r.timings.Micros("load"), 0);
  EXPECT_EQ(r.duplicates_removed, 0);
}

TEST(ProfilerTest, DuplicateRowsAreRemovedBeforeUccDiscovery) {
  const char* csv =
      "A,B\n"
      "1,x\n"
      "1,x\n"
      "2,y\n";
  ProfileOptions options;
  auto result = ProfileCsvString(csv, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().duplicates_removed, 1);
  // After dedup, A (and B) are unique.
  EXPECT_EQ(result.value().uccs,
            (std::vector<ColumnSet>{ColumnSet::Single(0),
                                    ColumnSet::Single(1)}));
}

TEST(ProfilerTest, DedupCountersReachTheResultMetrics) {
  const char* csv =
      "A,B\n"
      "1,x\n"
      "1,x\n"
      "2,y\n"
      "1,x\n";
  for (const int threads : {1, 4}) {
    ProfileOptions options;
    options.num_threads = threads;
    auto result = ProfileCsvString(csv, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().duplicates_removed, 2);
    int64_t rows = -1;
    int64_t removed = -1;
    for (const auto& [name, value] : result.value().metrics) {
      if (name == "dedup.rows") rows = value;
      if (name == "dedup.duplicates_removed") removed = value;
    }
    EXPECT_EQ(rows, 4) << threads;
    EXPECT_EQ(removed, 2) << threads;
  }
}

TEST(ProfilerTest, AllAlgorithmsExposeCounters) {
  // Every engine counts its FD checks in the registry: MUDS under muds.*,
  // Holistic FUN and the baseline (both end in FUN) under fun.*.
  const std::pair<Algorithm, const char*> engines[] = {
      {Algorithm::kMuds, "muds.fd_checks"},
      {Algorithm::kHolisticFun, "fun.fd_checks"},
      {Algorithm::kBaseline, "fun.fd_checks"}};
  for (const auto& [algorithm, fd_checks] : engines) {
    ProfileOptions options;
    options.algorithm = algorithm;
    auto result = ProfileCsvString(kCsv, options);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_GT(metrics::ValueOf(result.value().metrics, fd_checks), 0)
        << AlgorithmName(algorithm);
  }
}

TEST(ProfilerTest, BaselineModelsUnsharedReads) {
  // The baseline parses once per profiling task: its run reads the input
  // three times where the holistic algorithms read it once.
  ProfileOptions options;
  options.algorithm = Algorithm::kMuds;
  std::string text = "a,b,c,d,e,f\n";
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(i % 97) + "," + std::to_string(i % 13) + "," +
            std::to_string(i % 7) + "," + std::to_string(i) + "," +
            std::to_string(i % 3) + "," + std::to_string(i % 29) + "\n";
  }
  auto holistic = ProfileCsvString(text, options);
  options.algorithm = Algorithm::kBaseline;
  auto baseline = ProfileCsvString(text, options);
  ASSERT_TRUE(holistic.ok());
  ASSERT_TRUE(baseline.ok());
  const MetricsSnapshot& once = holistic.value().metrics;
  const MetricsSnapshot& thrice = baseline.value().metrics;
  EXPECT_EQ(metrics::ValueOf(once, "ingest.bytes"),
            static_cast<int64_t>(text.size()));
  EXPECT_EQ(metrics::ValueOf(once, "ingest.records"), 5000);
  for (const char* name : {"ingest.bytes", "ingest.records"}) {
    EXPECT_EQ(metrics::ValueOf(thrice, name),
              3 * metrics::ValueOf(once, name))
        << name;
  }
}

TEST(ProfilerTest, NegativeThreadCountsAreInvalidArguments) {
  // Rejected before the run's pool is built, with or without appends.
  ProfileOptions engine_threads;
  engine_threads.num_threads = -2;
  auto appended =
      ProfileCsvStringWithAppends("a,b\n1,2\n", {"3,4\n"}, engine_threads);
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(appended.status().message(), "num_threads must be >= 0, got -2");

  auto profiled = ProfileCsvString("a,b\n1,2\n", engine_threads);
  ASSERT_FALSE(profiled.ok());
  EXPECT_EQ(profiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(profiled.status().message(), "num_threads must be >= 0, got -2");
}

TEST(ProfilerTest, ProfileCsvFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/muds_profiler_test.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(kCsv, f);
    fclose(f);
  }
  auto result = ProfileCsvFile(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().uccs.size(), 1u);
  std::remove(path.c_str());
}

TEST(ProfilerTest, MissingFilePropagatesError) {
  auto result = ProfileCsvFile("/nonexistent/muds.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

int64_t Metric(const ProfilingResult& result, const std::string& name) {
  for (const auto& [key, value] : result.metrics) {
    if (key == name) return value;
  }
  return -1;
}

TEST(ProfilerTest, TinyPliBudgetDoesNotChangeResults) {
  // Every EngineConfig field must reach every engine, and none may change
  // the discovered dependency sets. Identical results alone would not show
  // a field that stopped being passed on, so the run's metric deltas are
  // checked too: the sampler must have drawn pairs, and the engines that
  // own a PLI cache must have spilled under the eviction-forcing budget.
  // The relation needs real lattice work: at cardinality <= 3 it dedups to
  // 4 rows, every check is settled without an intersect, and nothing is
  // ever cached to spill.
  const Relation r = RandomRelation(11, 6, 120, 8);
  EngineConfig config;
  config.seed = 7;
  config.pli_budget_bytes = 1;
  config.spill.dir = ::testing::TempDir();
  config.sampling.pairs = 64;
  config.sampling.seed = 5;
  for (Algorithm algorithm : {Algorithm::kMuds, Algorithm::kHolisticFun,
                              Algorithm::kBaseline, Algorithm::kAuto}) {
    ProfileOptions defaults;
    defaults.algorithm = algorithm;
    ProfileOptions tuned = defaults;
    static_cast<EngineConfig&>(tuned) = config;
    tuned.num_threads = 3;
    const ProfilingResult a = ProfileRelation(r, defaults);
    const ProfilingResult b = ProfileRelation(r, tuned);
    const std::string label = std::string(AlgorithmName(algorithm)) + "/" +
                              AlgorithmName(b.algorithm_used);
    EXPECT_EQ(a.algorithm_used, b.algorithm_used) << label;
    EXPECT_EQ(a.inds, b.inds) << label;
    EXPECT_EQ(a.uccs, b.uccs) << label;
    EXPECT_EQ(a.fds, b.fds) << label;
    EXPECT_GT(Metric(b, "sampling.pairs"), 0) << label;
    if (b.algorithm_used != Algorithm::kHolisticFun) {
      ASSERT_GT(Metric(b, "pli_cache.intersects"), 0) << label;
      EXPECT_GT(Metric(b, "pli_cache.spill_writes"), 0) << label;
    }
  }
}

TEST(ProfilerTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kMuds), "MUDS");
  EXPECT_STREQ(AlgorithmName(Algorithm::kHolisticFun), "HFUN");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBaseline), "baseline");
}

}  // namespace
}  // namespace muds
