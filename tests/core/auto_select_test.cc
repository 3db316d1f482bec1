#include <gtest/gtest.h>

#include "core/profiler.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

TEST(AutoSelectTest, ColumnCountPolicyPicksHfunForNarrowRelations) {
  Relation r = RandomRelation(1, /*cols=*/5, /*rows=*/60, 4);
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  ProfilingResult result = ProfileRelation(r, options);
  EXPECT_EQ(result.algorithm_used, Algorithm::kHolisticFun);
}

TEST(AutoSelectTest, ColumnCountPolicyPicksMudsForWideRelations) {
  // Twelve active columns (cardinality >= 2 guaranteed by construction).
  Relation r = MakeCategorical(
      60, {3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2}, 2, "wide");
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  ProfilingResult result = ProfileRelation(r, options);
  EXPECT_EQ(result.algorithm_used, Algorithm::kMuds);
}

TEST(AutoSelectTest, TenActiveColumnsIsTheMudsBoundary) {
  // Cardinality >= 2 in every column, so all of them are active.
  ASSERT_EQ(kAutoColumnThreshold, 10);
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  const Relation nine =
      MakeCategorical(60, {3, 4, 2, 3, 4, 2, 3, 4, 2}, 2, "nine");
  EXPECT_EQ(ProfileRelation(nine, options).algorithm_used,
            Algorithm::kHolisticFun);
  const Relation ten =
      MakeCategorical(60, {3, 4, 2, 3, 4, 2, 3, 4, 2, 3}, 2, "ten");
  EXPECT_EQ(ProfileRelation(ten, options).algorithm_used, Algorithm::kMuds);
}

TEST(AutoSelectTest, ConstantColumnsDoNotCountTowardsWidth) {
  // 11 columns but only 3 active: the column-count rule must use the
  // active width.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> row(11, "k");
    row[0] = "a" + std::to_string(i % 7);
    row[1] = "b" + std::to_string(i % 5);
    row[2] = "c" + std::to_string(i);
    rows.push_back(row);
  }
  Relation r = Relation::FromRows(
      {"a", "b", "c", "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}, rows);
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  EXPECT_EQ(ProfileRelation(r, options).algorithm_used,
            Algorithm::kHolisticFun);
}

TEST(AutoSelectTest, AutoResultMatchesExplicitAlgorithms) {
  for (uint64_t seed = 50; seed < 58; ++seed) {
    Relation r = RandomRelation(seed, 4 + static_cast<int>(seed % 8), 40, 3);
    ProfileOptions options;
    options.algorithm = Algorithm::kAuto;
    ProfilingResult auto_result = ProfileRelation(r, options);
    options.algorithm = Algorithm::kMuds;
    ProfilingResult muds_result = ProfileRelation(r, options);
    EXPECT_EQ(auto_result.fds, muds_result.fds) << "seed " << seed;
    EXPECT_EQ(auto_result.uccs, muds_result.uccs) << "seed " << seed;
    EXPECT_EQ(auto_result.inds, muds_result.inds) << "seed " << seed;
  }
}

TEST(AutoSelectTest, CsvEntryPointSupportsAuto) {
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  auto result = ProfileCsvString("A,B\n1,x\n2,y\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().algorithm_used, Algorithm::kHolisticFun);
  EXPECT_STREQ(AlgorithmName(Algorithm::kAuto), "auto");
}

}  // namespace
}  // namespace muds
