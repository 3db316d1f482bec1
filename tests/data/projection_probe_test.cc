#include "data/projection_probe.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/muds.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "pli/pli_cache.h"
#include "test_util.h"
#include "testing/reference.h"
#include "ucc/ducc.h"

namespace muds {
namespace {

using Pairs = std::vector<std::pair<RowId, RowId>>;

bool AgreeOn(const Relation& r, const ColumnSet& columns, RowId a, RowId b) {
  for (int c = columns.First(); c >= 0; c = columns.NextAtLeast(c + 1)) {
    if (r.Code(a, c) != r.Code(b, c)) return false;
  }
  return true;
}

// Every refuted candidate is a real non-FD with a witness pair that agrees
// on `lhs` and differs on it, and every witness agrees on `lhs`.
void ExpectSoundProbe(const Relation& r, const ColumnSet& lhs,
                      const ColumnSet& candidates) {
  Pairs witnesses;
  const ColumnSet refuted = ProbeFdViolations(r, lhs, candidates, &witnesses);
  EXPECT_TRUE(refuted.IsSubsetOf(candidates));
  for (const auto& [first, second] : witnesses) {
    EXPECT_LT(first, second);
    EXPECT_TRUE(AgreeOn(r, lhs, first, second)) << lhs.ToString();
  }
  for (int a = refuted.First(); a >= 0; a = refuted.NextAtLeast(a + 1)) {
    EXPECT_FALSE(ReferenceProfiler::HoldsFd(r, lhs, a))
        << lhs.ToString() << " -> " << a;
    bool witnessed = false;
    for (const auto& [first, second] : witnesses) {
      witnessed |= r.Code(first, a) != r.Code(second, a);
    }
    EXPECT_TRUE(witnessed) << lhs.ToString() << " -> " << a;
  }
  // Within the scan cap the probe sees every row, so it is exact.
  if (r.NumRows() <= kProbeMinRows) {
    for (int a = candidates.First(); a >= 0;
         a = candidates.NextAtLeast(a + 1)) {
      EXPECT_EQ(refuted.Contains(a), !ReferenceProfiler::HoldsFd(r, lhs, a))
          << lhs.ToString() << " -> " << a;
    }
  }
}

// `cols` columns of cardinality `card` each, drawn uniformly.
Relation UniformRelation(uint64_t seed, int cols, int rows, int card) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  std::vector<std::vector<std::string>> data(static_cast<size_t>(rows));
  for (auto& row : data) {
    for (int c = 0; c < cols; ++c) {
      row.push_back(std::to_string(rng.NextBelow(static_cast<uint64_t>(card))));
    }
  }
  return Relation::FromRows(names, data, "uniform");
}

TEST(CardinalityBoundTest, PigeonholeBoundary) {
  // A (2 values) x B (3 values): the product is 6. Column C tells the rows
  // apart so the relation stays duplicate-free.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 7; ++i) {
    rows.push_back({std::to_string(i % 2), std::to_string(i % 3),
                    std::to_string(i)});
  }
  const ColumnSet ab = ColumnSet::FromIndices({0, 1});
  // Π = |r| = 6: all six combinations occur once, so AB is unique.
  const Relation six = Relation::FromRows(
      {"A", "B", "C"}, std::vector(rows.begin(), rows.begin() + 6));
  EXPECT_FALSE(CardinalityBoundRefutesUcc(six, ab));
  EXPECT_TRUE(ReferenceProfiler::HoldsUcc(six, ab));
  // Π = |r| - 1 = 6: a seventh row must repeat a combination.
  const Relation seven = Relation::FromRows({"A", "B", "C"}, rows);
  EXPECT_TRUE(CardinalityBoundRefutesUcc(seven, ab));
  EXPECT_FALSE(ReferenceProfiler::HoldsUcc(seven, ab));
  EXPECT_FALSE(CardinalityBoundRefutesUcc(seven, ab.With(2)));
}

TEST(CardinalityBoundTest, ConstantColumnsAndTheEmptySet) {
  const Relation r = Relation::FromRows(
      {"K", "X"}, {{"k", "1"}, {"k", "2"}, {"k", "3"}});
  EXPECT_TRUE(CardinalityBoundRefutesUcc(r, ColumnSet()));
  EXPECT_TRUE(CardinalityBoundRefutesUcc(r, ColumnSet::Single(0)));
  EXPECT_FALSE(CardinalityBoundRefutesUcc(r, ColumnSet::Single(1)));
  EXPECT_FALSE(CardinalityBoundRefutesUcc(r, ColumnSet::FromIndices({0, 1})));
  // A constant lhs puts every row in one group.
  Pairs witnesses;
  EXPECT_EQ(ProbeFdViolations(r, ColumnSet::Single(0), ColumnSet::Single(1),
                              &witnesses),
            ColumnSet::Single(1));
  EXPECT_EQ(witnesses, (Pairs{{0, 1}}));
  // A constant candidate is never refuted.
  EXPECT_TRUE(ProbeFdViolations(r, ColumnSet(), ColumnSet::Single(0)).Empty());
}

TEST(CardinalityBoundTest, NullUnequalCodesCountAsValues) {
  constexpr char kCsv[] = "A,B\n,1\n,2\nx,3\n";
  CsvOptions unequal;
  unequal.nulls = NullSemantics::kNullUnequal;
  const Result<Relation> fresh = CsvReader::ReadString(kCsv, unequal);
  ASSERT_TRUE(fresh.ok());
  // Each NULL holds its own code: A has 3 values on 3 rows and is a key.
  EXPECT_FALSE(CardinalityBoundRefutesUcc(fresh.value(), ColumnSet::Single(0)));
  EXPECT_TRUE(ProbeFdViolations(fresh.value(), ColumnSet::Single(0),
                                ColumnSet::Single(1))
                  .Empty());
  // Under NULL = NULL the two NULL rows agree on A and differ on B.
  const Result<Relation> equal = CsvReader::ReadString(kCsv);
  ASSERT_TRUE(equal.ok());
  EXPECT_TRUE(CardinalityBoundRefutesUcc(equal.value(), ColumnSet::Single(0)));
  Pairs witnesses;
  EXPECT_EQ(ProbeFdViolations(equal.value(), ColumnSet::Single(0),
                              ColumnSet::Single(1), &witnesses),
            ColumnSet::Single(1));
  EXPECT_EQ(witnesses, (Pairs{{0, 1}}));
}

TEST(ProjectionProbeTest, TinyRelations) {
  const Relation empty = Relation::FromRows({"A", "B"}, {});
  EXPECT_FALSE(CardinalityBoundRefutesUcc(empty, ColumnSet()));
  EXPECT_TRUE(ProbeFdViolations(empty, ColumnSet(), ColumnSet::Single(1))
                  .Empty());

  const Relation one = Relation::FromRows({"A", "B"}, {{"1", "x"}});
  EXPECT_FALSE(CardinalityBoundRefutesUcc(one, ColumnSet()));
  EXPECT_TRUE(
      ProbeFdViolations(one, ColumnSet(), ColumnSet::FromIndices({0, 1}))
          .Empty());

  const Relation two = Relation::FromRows({"A", "B"}, {{"1", "x"}, {"1", "y"}});
  EXPECT_TRUE(CardinalityBoundRefutesUcc(two, ColumnSet()));
  EXPECT_TRUE(CardinalityBoundRefutesUcc(two, ColumnSet::Single(0)));
  EXPECT_FALSE(CardinalityBoundRefutesUcc(two, ColumnSet::Single(1)));
  Pairs witnesses;
  EXPECT_EQ(ProbeFdViolations(two, ColumnSet(), ColumnSet::FromIndices({0, 1}),
                              &witnesses),
            ColumnSet::Single(1));
  EXPECT_EQ(witnesses, (Pairs{{0, 1}}));
  ExpectSoundProbe(two, ColumnSet::Single(0), ColumnSet::Single(1));
  ExpectSoundProbe(two, ColumnSet::Single(1), ColumnSet::Single(0));
}

TEST(ProjectionProbeTest, KeysPackUpTo64Bits) {
  // 16 columns of 16 values pack into exactly 64 bits; a 17th does not,
  // but a constant column takes no bits.
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> rows(16);
  for (int c = 0; c < 18; ++c) {
    names.push_back("c" + std::to_string(c));
    for (int row = 0; row < 16; ++row) {
      rows[static_cast<size_t>(row)].push_back(
          c == 17 ? "k" : std::to_string((row + c) % 16));
    }
  }
  const Relation r = Relation::FromRows(names, rows);
  for (int c = 0; c < 17; ++c) ASSERT_EQ(r.Cardinality(c), 16);
  EXPECT_TRUE(RowKeys(r, ColumnSet::FirstN(16)).exact());
  EXPECT_TRUE(RowKeys(r, ColumnSet::FirstN(16).With(17)).exact());
  EXPECT_FALSE(RowKeys(r, ColumnSet::FirstN(17)).exact());
}

TEST(ProjectionProbeTest, HashedKeysAreConfirmedOnTheCodes) {
  // 20 lhs columns of 16 values (80 bits) take the hash path. Rows 2k and
  // 2k+1 share the lhs projection and differ only on the last column, so
  // every witness pair needs a code-confirmed key match.
  constexpr int kLhsColumns = 20;
  const Relation base = UniformRelation(9, kLhsColumns, 200, 16);
  std::vector<std::string> names = base.ColumnNames();
  names.push_back("rhs");
  names.push_back("same");
  std::vector<std::vector<std::string>> rows;
  for (RowId r = 0; r < base.NumRows(); ++r) {
    for (int copy = 0; copy < 2; ++copy) {
      std::vector<std::string> row = base.Row(r);
      row.push_back(std::to_string(2 * r + copy));
      row.push_back(std::to_string(r));
      rows.push_back(std::move(row));
    }
  }
  const Relation r = Relation::FromRows(names, rows);
  const ColumnSet lhs = ColumnSet::FirstN(kLhsColumns);
  ASSERT_FALSE(RowKeys(r, lhs).exact());
  Pairs witnesses;
  EXPECT_EQ(ProbeFdViolations(r, lhs, ColumnSet::FromIndices(
                                          {kLhsColumns, kLhsColumns + 1}),
                              &witnesses),
            ColumnSet::Single(kLhsColumns));
  ASSERT_FALSE(witnesses.empty());
  EXPECT_TRUE(AgreeOn(r, lhs, witnesses[0].first, witnesses[0].second));
  ExpectSoundProbe(r, lhs, ColumnSet::FromIndices({kLhsColumns,
                                                   kLhsColumns + 1}));
  ExpectSoundProbe(r, ColumnSet::FirstN(kLhsColumns - 1),
                   ColumnSet::FromIndices({kLhsColumns - 1, kLhsColumns}));
}

TEST(ProjectionProbeTest, RefutationsMatchTheReferenceOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const int cols = 2 + static_cast<int>(seed % 5);
    // Up to 600 rows, so larger seeds run past the scan cap.
    const int rows = 2 + static_cast<int>((seed * 37) % 600);
    const int max_card = 1 + static_cast<int>(seed % 8);
    const Relation r =
        DeduplicateRows(RandomRelation(seed, cols, rows, max_card)).relation;
    const ColumnSet all = ColumnSet::FirstN(cols);
    for (int mask = 0; mask < (1 << cols); ++mask) {
      ColumnSet lhs;
      for (int c = 0; c < cols; ++c) {
        if (mask & (1 << c)) lhs.Add(c);
      }
      if (CardinalityBoundRefutesUcc(r, lhs)) {
        EXPECT_FALSE(ReferenceProfiler::HoldsUcc(r, lhs))
            << "seed " << seed << " " << lhs.ToString();
      }
      ExpectSoundProbe(r, lhs, all.Difference(lhs));
    }
  }
}

TEST(ProjectionProbeTest, EnginesMatchTheReference) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const int cols = 3 + static_cast<int>(seed % 5);
    const int rows = 20 + static_cast<int>((seed * 53) % 700);
    const int max_card = 2 + static_cast<int>(seed % 7);
    const Relation r =
        DeduplicateRows(RandomRelation(seed, cols, rows, max_card)).relation;
    const std::vector<ColumnSet> uccs = ReferenceProfiler::DiscoverUccs(r);
    const std::vector<Fd> fds = ReferenceProfiler::DiscoverFds(r);
    PliCache cache(r);
    EXPECT_EQ(Ducc::Discover(r, &cache), uccs) << "seed " << seed;
    for (const int64_t sample_pairs : {int64_t{0}, int64_t{64}}) {
      EngineConfig config;
      config.seed = seed;
      config.sampling.pairs = sample_pairs;
      for (ThreadPool* run_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const MudsResult result = Muds::Run(r, config, {}, run_pool);
        EXPECT_EQ(result.uccs, uccs) << "seed " << seed;
        EXPECT_EQ(result.fds, fds)
            << "seed " << seed << " pairs " << sample_pairs
            << (run_pool ? " pooled" : " inline");
      }
    }
  }
}

TEST(ProjectionProbeTest, EachUniquenessCheckProbesTheCacheAtMostOnce) {
  const Relation r =
      DeduplicateRows(RandomRelation(17, 6, 400, 5)).relation;
  PliCache cache(r);
  const MetricsScope scope;
  Ducc::Discover(r, &cache);
  const int64_t refuted = ScopeValue(scope, "ducc.refuted_by_cardinality");
  EXPECT_GT(refuted, 0);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.hits") +
                ScopeValue(scope, "pli_cache.misses"),
            ScopeValue(scope, "ducc.uniqueness_checks") - refuted);
}

TEST(ProjectionProbeTest, WitnessesFeedTheEvidenceStore) {
  // Every lhs of at most two columns is provably non-unique here, so the
  // probe runs and feeds its witnesses back as sampling.fed_back pairs.
  const Relation r =
      DeduplicateRows(UniformRelation(23, 5, 3000, 4)).relation;
  EngineConfig config;
  config.sampling.pairs = 1;
  const MetricsScope scope;
  const MudsResult result = Muds::Run(r, config);
  EXPECT_GT(ScopeValue(scope, "muds.fd_probe.refuted"), 0);
  EXPECT_GT(ScopeValue(scope, "sampling.fed_back"), 0);
  EXPECT_EQ(result.fds, ReferenceProfiler::DiscoverFds(r));
}

// A miniature of the long-narrow workload: 50,000 rows over 6 columns of
// cardinalities 2..7 (5,040 combinations). After dedup only the full set
// is unique; every proper subset is refuted by the cardinality bound and
// every FD candidate by the row probe, so the PLI cache sees only the
// confirmation chain of the one UCC.
TEST(ProjectionProbeTest, LongNarrowStaysOffThePliCache) {
  Rng rng(3);
  std::vector<std::vector<std::string>> rows(50000);
  for (auto& row : rows) {
    for (int card = 2; card <= 7; ++card) {
      row.push_back(std::to_string(rng.NextBelow(static_cast<uint64_t>(card))));
    }
  }
  const Relation r =
      DeduplicateRows(Relation::FromRows({"a", "b", "c", "d", "e", "f"}, rows))
          .relation;
  ThreadPool pool(4);
  const MetricsScope scope;
  const MudsResult result = Muds::Run(r, EngineConfig(), {}, &pool);
  const ColumnSet key = ColumnSet::FirstN(6);
  ASSERT_EQ(result.uccs, std::vector<ColumnSet>{key});
  EXPECT_EQ(result.fds, ReferenceProfiler::DiscoverFds(r));
  // The key's PLI is built through its prefixes: 5 intersects.
  EXPECT_LE(ScopeValue(scope, "pli_cache.intersects"), key.Count() - 1);
  EXPECT_GT(ScopeValue(scope, "ducc.refuted_by_cardinality"), 0);
  EXPECT_LE(ScopeValue(scope, "muds.fd_checks"), 2);
  EXPECT_GT(ScopeValue(scope, "muds.fd_probe.refuted"), 0);
}

}  // namespace
}  // namespace muds
