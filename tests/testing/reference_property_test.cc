// Self-consistency property test for the reference profiler (the oracle the
// whole differential harness leans on): on seeded adversarial relations,
// every reported dependency must hold by definition, every reported minimal
// FD/UCC must have only failing generalizations, and no valid dependency
// may be missing: every column set on which a UCC or FD holds contains a
// reported one, and every valid unary IND is reported. The checks go
// through HoldsUcc/HoldsFd/HoldsInd, which are separate code paths from the
// discovery enumeration, so the oracle is not graded with its own pencil.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/preprocess.h"
#include "data/relation.h"
#include "setops/column_set.h"
#include "testing/reference.h"
#include "workload/generators.h"

namespace muds {
namespace {

constexpr uint64_t kNumSeeds = 50;

// Every column subset of a relation with `num_columns` columns; the
// relations here have at most 7, so the completeness sweeps enumerate all.
std::vector<ColumnSet> AllColumnSubsets(int num_columns) {
  std::vector<ColumnSet> subsets;
  for (uint32_t mask = 0; mask < (uint32_t{1} << num_columns); ++mask) {
    ColumnSet subset;
    for (int c = 0; c < num_columns; ++c) {
      if ((mask >> c) & 1) subset.Add(c);
    }
    subsets.push_back(subset);
  }
  return subsets;
}

bool ContainsReported(const ColumnSet& columns,
                      const std::vector<ColumnSet>& reported) {
  for (const ColumnSet& set : reported) {
    if (set.IsSubsetOf(columns)) return true;
  }
  return false;
}

TEST(ReferencePropertyTest, MinimalFdsHoldAndGeneralizationsFail) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const AdversarialParams params = SampleAdversarialParams(seed, 7, 250);
    const Relation relation =
        DeduplicateRows(MakeAdversarial(params)).relation;
    SCOPED_TRACE(params.ToString());
    const std::vector<Fd> fds = ReferenceProfiler::DiscoverFds(relation);
    for (const Fd& fd : fds) {
      EXPECT_TRUE(ReferenceProfiler::HoldsFd(relation, fd.lhs, fd.rhs))
          << "reported FD does not hold, rhs=" << fd.rhs;
      // Minimality: removing any single lhs column must break the FD.
      for (int c = fd.lhs.First(); c >= 0; c = fd.lhs.NextAtLeast(c + 1)) {
        ColumnSet generalization = fd.lhs;
        generalization.Remove(c);
        EXPECT_FALSE(
            ReferenceProfiler::HoldsFd(relation, generalization, fd.rhs))
            << "non-minimal FD: lhs minus column " << c
            << " still determines rhs=" << fd.rhs;
      }
    }
    // Completeness: wherever S -> a holds, some reported lhs of a is ⊆ S.
    const int n = relation.NumColumns();
    ASSERT_LE(n, 7);
    std::vector<std::vector<ColumnSet>> lhs_of(static_cast<size_t>(n));
    for (const Fd& fd : fds) {
      lhs_of[static_cast<size_t>(fd.rhs)].push_back(fd.lhs);
    }
    for (const ColumnSet& lhs : AllColumnSubsets(n)) {
      for (int rhs = 0; rhs < n; ++rhs) {
        if (lhs.Contains(rhs) ||
            !ReferenceProfiler::HoldsFd(relation, lhs, rhs)) {
          continue;
        }
        EXPECT_TRUE(ContainsReported(lhs, lhs_of[static_cast<size_t>(rhs)]))
            << "missing FD: " << lhs.ToString() << " -> " << rhs
            << " holds but no reported lhs is a subset";
      }
    }
  }
}

TEST(ReferencePropertyTest, MinimalUccsHoldAndGeneralizationsFail) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const AdversarialParams params = SampleAdversarialParams(seed, 7, 250);
    const Relation relation =
        DeduplicateRows(MakeAdversarial(params)).relation;
    SCOPED_TRACE(params.ToString());
    const std::vector<ColumnSet> uccs =
        ReferenceProfiler::DiscoverUccs(relation);
    EXPECT_FALSE(uccs.empty())
        << "a duplicate-free relation always has at least one minimal UCC";
    for (const ColumnSet& ucc : uccs) {
      EXPECT_TRUE(ReferenceProfiler::HoldsUcc(relation, ucc));
      for (int c = ucc.First(); c >= 0; c = ucc.NextAtLeast(c + 1)) {
        ColumnSet generalization = ucc;
        generalization.Remove(c);
        EXPECT_FALSE(ReferenceProfiler::HoldsUcc(relation, generalization))
            << "non-minimal UCC: still unique without column " << c;
      }
    }
    // Completeness: wherever S is unique, some reported UCC is ⊆ S.
    ASSERT_LE(relation.NumColumns(), 7);
    for (const ColumnSet& columns : AllColumnSubsets(relation.NumColumns())) {
      if (!ReferenceProfiler::HoldsUcc(relation, columns)) continue;
      EXPECT_TRUE(ContainsReported(columns, uccs))
          << "missing UCC: " << columns.ToString()
          << " is unique but no reported UCC is a subset";
    }
  }
}

TEST(ReferencePropertyTest, IndsAreExactlyTheValidOrderedPairs) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const AdversarialParams params = SampleAdversarialParams(seed, 7, 250);
    const Relation relation = MakeAdversarial(params);
    SCOPED_TRACE(params.ToString());
    const std::vector<Ind> inds = ReferenceProfiler::DiscoverInds(relation);
    // Soundness and completeness in one sweep over all ordered pairs.
    std::vector<Ind> expected;
    for (int a = 0; a < relation.NumColumns(); ++a) {
      for (int b = 0; b < relation.NumColumns(); ++b) {
        if (a != b && ReferenceProfiler::HoldsInd(relation, a, b)) {
          expected.push_back({a, b});
        }
      }
    }
    EXPECT_EQ(inds, expected);
  }
}

}  // namespace
}  // namespace muds
