// Coverage for relations wider than one bitset word (> 64 columns): the
// ColumnSet multi-word paths must work inside every real algorithm, not
// just in the unit tests.

#include <gtest/gtest.h>

#include "core/muds.h"
#include "core/profiler.h"
#include "data/preprocess.h"
#include "fd/fun.h"
#include "fd/tane.h"
#include "pli/pli_cache.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

// 70 columns: a unique id, a derivation chain, and constant padding. Kept
// structurally simple so the lattice work stays tiny while every ColumnSet
// spans two words.
Relation MakeWideRelation(int64_t rows) {
  std::vector<ColumnSpec> specs;
  specs.push_back({ColumnSpec::Kind::kUnique, 0, 1, {}});
  specs.push_back({ColumnSpec::Kind::kCategorical, 9, 1, {}});
  specs.push_back({ColumnSpec::Kind::kRenamed, 0, 1, {1}});
  specs.push_back({ColumnSpec::Kind::kDerived, 4, 1, {1}});
  for (int c = 4; c < 70; ++c) {
    if (c % 2 == 0) {
      specs.push_back({ColumnSpec::Kind::kCategorical, 1, 1, {}});  // const
    } else {
      // Renamed chains keep the dependency structure trivial (every such
      // column determines the others at level 1) while exercising columns
      // in the second bitset word.
      specs.push_back({ColumnSpec::Kind::kRenamed, 0, 1, {3}});
    }
  }
  return MakeFromSpecs(rows, specs, 77, "wide");
}

TEST(WideRelationTest, AllAlgorithmsAgreeAcrossWordBoundaries) {
  Relation r = DeduplicateRows(MakeWideRelation(300)).relation;
  ASSERT_EQ(r.NumColumns(), 70);

  FdDiscoveryResult tane = Tane::Discover(r);
  FdDiscoveryResult fun = Fun::Discover(r);
  MudsResult muds = Muds::Run(r);

  EXPECT_EQ(tane.fds, fun.fds);
  EXPECT_EQ(tane.fds, muds.fds);
  EXPECT_EQ(tane.uccs, muds.uccs);

  // Sanity: the unique id is a key; constant columns contribute ∅-lhs FDs.
  EXPECT_NE(std::find(muds.uccs.begin(), muds.uccs.end(),
                      ColumnSet::Single(0)),
            muds.uccs.end());
  int empty_lhs = 0;
  for (const Fd& fd : muds.fds) {
    if (fd.lhs.Empty()) ++empty_lhs;
  }
  EXPECT_EQ(empty_lhs, 33);  // Columns 4, 6, ..., 68.
}

TEST(WideRelationTest, ProfilerHandlesWideCsv) {
  Relation r = MakeWideRelation(120);
  ProfileOptions options;
  options.algorithm = Algorithm::kAuto;
  ProfilingResult result = ProfileRelation(r, options);
  EXPECT_FALSE(result.fds.empty());
  EXPECT_FALSE(result.uccs.empty());
}

TEST(WideRelationTest, RejectsMoreColumnsThanTheBitsetSupports) {
  std::string header = "c0";
  for (int c = 1; c < 300; ++c) header += ",c" + std::to_string(c);
  std::string row = "0";
  for (int c = 1; c < 300; ++c) row += ",0";
  auto result = CsvReader::ReadString(header + "\n" + row + "\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WideRelationTest, PliCacheBudgetStillReturnsCorrectPlis) {
  Relation r = DeduplicateRows(RandomRelation(5, 8, 80, 3)).relation;
  // A one-byte budget forces every unpinned entry out immediately; only the
  // pinned single-column PLIs (and ∅) survive, and results stay correct.
  // Only the budgeted cache can evict, so the run's evictions are its own.
  const MetricsScope scope;
  PliCache budgeted(r, /*budget_bytes=*/1);
  PliCache unlimited(r, PliCache::kUnlimitedBudget);
  const ColumnSet probe = ColumnSet::FromIndices({0, 2, 4, 6});
  EXPECT_EQ(budgeted.Get(probe)->DistinctCount(),
            unlimited.Get(probe)->DistinctCount());
  // The budgeted cache holds only the pinned entries once the dust settles.
  EXPECT_EQ(budgeted.Size(), static_cast<size_t>(r.NumColumns()) + 1);
  EXPECT_GT(ScopeValue(scope, "pli_cache.evictions"), 0);
}

}  // namespace
}  // namespace muds
