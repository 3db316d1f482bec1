#include "core/muds.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/preprocess.h"
#include "test_util.h"
#include "testing/reference.h"
#include "ucc/ducc.h"
#include "workload/generators.h"

namespace muds {
namespace {

TEST(MudsTest, SimpleRelation) {
  Relation r = Relation::FromRows({"K", "A", "B"},
                                  {{"1", "x", "p"},
                                   {"2", "x", "p"},
                                   {"3", "y", "q"},
                                   {"4", "y", "p"}});
  MudsResult result = Muds::Run(r);
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet::Single(0)}));
  EXPECT_EQ(result.fds, (std::vector<Fd>{{ColumnSet::Single(0), 1},
                                         {ColumnSet::Single(0), 2}}));
  EXPECT_TRUE(result.inds.empty());
}

TEST(MudsTest, DegenerateRelations) {
  Relation single = Relation::FromRows({"A", "B"}, {{"x", "y"}});
  MudsResult result = Muds::Run(single);
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet()}));
  EXPECT_EQ(result.fds,
            (std::vector<Fd>{{ColumnSet(), 0}, {ColumnSet(), 1}}));

  Relation empty = Relation::FromRows({"A"}, {});
  MudsResult empty_result = Muds::Run(empty);
  EXPECT_EQ(empty_result.uccs, (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(MudsTest, PhaseTimingsArePopulated) {
  Relation r = DeduplicateRows(RandomRelation(3, 6, 60, 4)).relation;
  MudsResult result = Muds::Run(r);
  EXPECT_GT(result.timings.Micros("SPIDER") +
                result.timings.Micros("DUCC") +
                result.timings.Micros("minimizeFDs"),
            0);
  // Every paper phase appears in the breakdown (§6.4 / Figure 8).
  const auto& entries = result.timings.entries();
  const auto has = [&](const std::string& name) {
    for (const auto& [n, micros] : entries) {
      (void)micros;
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("SPIDER"));
  EXPECT_TRUE(has("DUCC"));
  EXPECT_TRUE(has("minimizeFDs"));
  EXPECT_TRUE(has("calculateRZ"));
  EXPECT_TRUE(has("generateShadowedTasks"));
}

TEST(MudsTest, PrefixTreeToggleDoesNotChangeResults) {
  for (uint64_t seed = 900; seed < 915; ++seed) {
    Relation r = DeduplicateRows(RandomRelation(seed, 6, 50, 3)).relation;
    MudsOptions with_tree;
    with_tree.use_prefix_tree = true;
    MudsOptions without_tree;
    without_tree.use_prefix_tree = false;
    MudsResult a = Muds::Run(r, {}, with_tree);
    MudsResult b = Muds::Run(r, {}, without_tree);
    EXPECT_EQ(a.fds, b.fds) << "seed " << seed;
    EXPECT_EQ(a.uccs, b.uccs) << "seed " << seed;
  }
}

TEST(MudsTest, SkippingThePaperShadowedPhaseDoesNotChangeResults) {
  // Under the default exhaustive completion, Algorithm 2-4 is an
  // accelerator only; disabling it must be invisible in the output.
  for (uint64_t seed = 930; seed < 945; ++seed) {
    Relation r = DeduplicateRows(RandomRelation(seed, 7, 30, 3)).relation;
    MudsOptions with_phase;
    MudsOptions without_phase;
    without_phase.run_paper_shadowed_phase = false;
    MudsResult a = Muds::Run(r, {}, with_phase);
    MudsResult b = Muds::Run(r, {}, without_phase);
    EXPECT_EQ(a.fds, b.fds) << "seed " << seed;
    EXPECT_EQ(a.uccs, b.uccs) << "seed " << seed;
  }
}

TEST(MudsTest, SeedIndependence) {
  Relation r = DeduplicateRows(RandomRelation(42, 7, 70, 3)).relation;
  EngineConfig config;
  config.seed = 1;
  const MudsResult reference = Muds::Run(r, config);
  for (uint64_t seed = 2; seed <= 6; ++seed) {
    config.seed = seed;
    MudsResult result = Muds::Run(r, config);
    EXPECT_EQ(result.fds, reference.fds) << "seed " << seed;
    EXPECT_EQ(result.uccs, reference.uccs) << "seed " << seed;
  }
}

TEST(MudsTest, PaperShadowedReconstructionIsIncomplete) {
  // §4.3/§5.3 as literally written (Completion::kFixpoint) fails to find
  // every minimal FD on relations with dense, overlapping minimal UCCs:
  // the Algorithm 2 extension never proposes the cross-UCC left-hand side.
  // This documents why the library defaults to Completion::kExhaustive
  // (see DESIGN.md). The seeds below were found by searching for minimal
  // FDs whose lhs is inside no single minimal UCC.
  int incomplete = 0;
  for (uint64_t seed : {103u, 142u, 146u, 163u, 239u, 275u, 335u, 343u}) {
    const int cols = 4 + static_cast<int>(seed % 4);
    const int rows = 8 + static_cast<int>((seed * 7) % 30);
    const int card = 2 + static_cast<int>(seed % 3);
    Relation r =
        DeduplicateRows(RandomRelation(seed, cols, rows, card)).relation;
    const std::vector<Fd> expected = ReferenceProfiler::DiscoverFds(r);

    MudsOptions fixpoint;
    fixpoint.completion = MudsOptions::Completion::kFixpoint;
    if (Muds::Run(r, {}, fixpoint).fds != expected) ++incomplete;

    MudsOptions exhaustive;  // The default.
    EXPECT_EQ(Muds::Run(r, {}, exhaustive).fds, expected) << "seed " << seed;
  }
  EXPECT_GT(incomplete, 0)
      << "the paper-faithful mode unexpectedly became complete; if this is "
         "intentional, update DESIGN.md";
}

TEST(MudsTest, RzPhaseFindsFdsOutsideEveryMinimalUcc) {
  // K is the only key, so Z = {K} and A, B, C are in R\Z; the FDs with
  // right-hand sides A, B, C must come out of the §5.2 sub-lattice walks.
  // A -> B is planted (B renames A's groups); C is independent.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({"k" + std::to_string(i),
                    "a" + std::to_string(i % 4),
                    "b" + std::to_string(i % 4),
                    "c" + std::to_string((i * 7) % 5)});
  }
  Relation r = Relation::FromRows({"K", "A", "B", "C"}, rows);
  const MetricsScope scope;
  MudsResult result = Muds::Run(r);
  EXPECT_EQ(result.uccs, (std::vector<ColumnSet>{ColumnSet::Single(0)}));
  ASSERT_GT(metrics::ValueOf(scope.run()->Snapshot(), "muds.fd_checks.rz"),
            0)
      << "the R\\Z phase never ran a check";
  // Minimal FDs: K -> everything, A <-> B.
  EXPECT_EQ(result.fds, ReferenceProfiler::DiscoverFds(r));
  const Fd a_to_b{ColumnSet::Single(1), 2};
  EXPECT_NE(std::find(result.fds.begin(), result.fds.end(), a_to_b),
            result.fds.end());
}

TEST(MudsTest, ConnectedUccPhaseMinimizesAcrossOverlappingKeys) {
  // Two overlapping composite keys (AB and BC) with FDs between them: the
  // §5.1 connector machinery is responsible for rhs in Z.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 36; ++i) {
    const int a = i / 6;
    const int b = i % 6;
    rows.push_back({"a" + std::to_string(a), "b" + std::to_string(b),
                    "c" + std::to_string((a + b * 7) % 36 / 6 * 6 + a)});
  }
  Relation r = DeduplicateRows(Relation::FromRows({"A", "B", "C"}, rows))
                   .relation;
  const MetricsScope scope;
  MudsResult result = Muds::Run(r);
  EXPECT_GT(
      metrics::ValueOf(scope.run()->Snapshot(), "muds.connector_lookups"), 0);
  EXPECT_EQ(result.fds, ReferenceProfiler::DiscoverFds(r));
  EXPECT_EQ(result.uccs, ReferenceProfiler::DiscoverUccs(r));
}

TEST(MudsTest, UccsMatchDuccByConstruction) {
  Relation r = DeduplicateRows(RandomRelation(77, 7, 80, 5)).relation;
  PliCache cache(r);
  EXPECT_EQ(Muds::Run(r).uccs, Ducc::Discover(r, &cache));
}

TEST(MudsTest, WorkloadGeneratorRelationIsProfiledCorrectly) {
  // A structured (non-uniform) instance: derived and renamed columns.
  Relation r = MakeNcvoterLike(400, 12, 7);
  Relation deduped = DeduplicateRows(r).relation;
  MudsResult muds = Muds::Run(deduped);
  EXPECT_EQ(muds.fds, ReferenceProfiler::DiscoverFds(deduped));
  EXPECT_EQ(muds.uccs, ReferenceProfiler::DiscoverUccs(deduped));
}

TEST(ConnectorLookupTest, PaperTable2Example) {
  // Table 2: minimal UCCs {AFG, BDFG, DEF, CEFG}, connector FG.
  // Matches: AFG, BDFG, CEFG; union of the non-connector parts = ABCDE.
  // (A=0, B=1, C=2, D=3, E=4, F=5, G=6.)
  const std::vector<ColumnSet> uccs = {
      ColumnSet::FromIndices({0, 5, 6}),
      ColumnSet::FromIndices({1, 3, 5, 6}),
      ColumnSet::FromIndices({3, 4, 5}),
      ColumnSet::FromIndices({2, 4, 5, 6}),
  };
  const ColumnSet connector = ColumnSet::FromIndices({5, 6});
  EXPECT_EQ(ConnectorLookup(uccs, connector),
            ColumnSet::FromIndices({0, 1, 2, 3, 4}));
}

TEST(ConnectorLookupTest, NoMatchingUccs) {
  const std::vector<ColumnSet> uccs = {ColumnSet::FromIndices({0, 1})};
  EXPECT_TRUE(
      ConnectorLookup(uccs, ColumnSet::FromIndices({2})).Empty());
}

TEST(ConnectorLookupTest, EmptyConnectorMatchesEverything) {
  const std::vector<ColumnSet> uccs = {ColumnSet::FromIndices({0, 1}),
                                       ColumnSet::FromIndices({2, 3})};
  EXPECT_EQ(ConnectorLookup(uccs, ColumnSet()),
            ColumnSet::FromIndices({0, 1, 2, 3}));
}

}  // namespace
}  // namespace muds
