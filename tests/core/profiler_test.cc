#include "core/profiler.h"

#include <gtest/gtest.h>

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
  for (Algorithm algorithm : {Algorithm::kMuds, Algorithm::kHolisticFun,
                              Algorithm::kBaseline}) {
    ProfileOptions options;
    options.algorithm = algorithm;
    auto result = ProfileCsvString(kCsv, options);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_FALSE(result.value().counters.empty());
  }
}

TEST(ProfilerTest, BaselineModelsUnsharedReads) {
  // The baseline parses once per profiling task; its load phase must cost
  // roughly three times the holistic load on the same input.
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
  EXPECT_GT(baseline.value().timings.Micros("load"),
            holistic.value().timings.Micros("load"));
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

TEST(ProfilerTest, TinyPliBudgetDoesNotChangeResults) {
  // An eviction-forcing budget only trades rebuild work for memory: the
  // discovered dependency sets must be identical, for every algorithm and
  // thread count.
  const Relation r = RandomRelation(11, 6, 120, 3);
  for (Algorithm algorithm : {Algorithm::kMuds, Algorithm::kBaseline}) {
    for (int threads : {1, 2}) {
      ProfileOptions unlimited;
      unlimited.algorithm = algorithm;
      unlimited.num_threads = threads;
      unlimited.pli_budget_bytes = 0;
      ProfileOptions tiny = unlimited;
      tiny.pli_budget_bytes = 1;
      const ProfilingResult a = ProfileRelation(r, unlimited);
      const ProfilingResult b = ProfileRelation(r, tiny);
      EXPECT_EQ(a.inds, b.inds) << AlgorithmName(algorithm);
      EXPECT_EQ(a.uccs, b.uccs) << AlgorithmName(algorithm);
      EXPECT_EQ(a.fds, b.fds) << AlgorithmName(algorithm);
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
