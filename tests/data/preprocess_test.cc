#include "data/preprocess.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

const int kThreadCounts[] = {1, 2, 3, 4, 8};

DeduplicateResult DedupAt(const Relation& relation, int threads) {
  ThreadPool pool(threads);
  return DeduplicateRows(relation, &pool);
}

// Rows, schema and dictionaries all equal.
void ExpectIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.ColumnNames(), b.ColumnNames());
  for (int c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.GetColumn(c).dictionary, b.GetColumn(c).dictionary) << c;
    EXPECT_EQ(a.GetColumn(c).codes, b.GetColumn(c).codes) << c;
  }
}

// String-row oracle: the result holds exactly the first occurrence of each
// distinct row of `input`, in input order, over minimal dictionaries.
void ExpectFirstOccurrences(const Relation& input,
                            const DeduplicateResult& result) {
  std::set<std::vector<std::string>> seen;
  std::vector<std::vector<std::string>> expected;
  for (RowId row = 0; row < input.NumRows(); ++row) {
    std::vector<std::string> values = input.Row(row);
    if (seen.insert(values).second) expected.push_back(std::move(values));
  }
  EXPECT_EQ(result.duplicates_removed,
            static_cast<int64_t>(input.NumRows()) -
                static_cast<int64_t>(expected.size()));
  std::vector<std::vector<std::string>> actual;
  for (RowId row = 0; row < result.relation.NumRows(); ++row) {
    actual.push_back(result.relation.Row(row));
  }
  EXPECT_EQ(actual, expected);
  for (int c = 0; c < result.relation.NumColumns(); ++c) {
    std::set<std::string> used;
    for (const auto& row : expected) used.insert(row[static_cast<size_t>(c)]);
    EXPECT_EQ(result.relation.GetColumn(c).dictionary,
              std::vector<std::string>(used.begin(), used.end()))
        << c;
  }
}

// Checks every thread count against the oracle and against each other.
void ExpectDedupCorrectAtAllThreadCounts(const Relation& input) {
  const DeduplicateResult reference = DedupAt(input, 1);
  ExpectFirstOccurrences(input, reference);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DeduplicateResult result = DedupAt(input, threads);
    EXPECT_EQ(result.duplicates_removed, reference.duplicates_removed);
    ExpectIdentical(result.relation, reference.relation);
  }
}

// `rows` rows drawn (with repeats) from `distinct` random rows of `cols`
// columns of the given cardinality.
Relation RepeatedRows(uint64_t seed, int cols, int64_t cardinality,
                      int distinct, int rows) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> pool;
  for (int i = 0; i < distinct; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back("v" + std::to_string(rng.NextBelow(
                              static_cast<uint64_t>(cardinality))));
    }
    pool.push_back(std::move(row));
  }
  std::vector<std::vector<std::string>> data;
  for (int r = 0; r < rows; ++r) {
    data.push_back(pool[rng.NextBelow(static_cast<uint64_t>(distinct))]);
  }
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  return Relation::FromRows(names, data, "repeated");
}

TEST(DeduplicateTest, RemovesExactDuplicatesKeepingFirst) {
  Relation r = Relation::FromRows({"A", "B"},
                                  {{"1", "x"},
                                   {"2", "y"},
                                   {"1", "x"},
                                   {"2", "z"},
                                   {"1", "x"}});
  DeduplicateResult result = DeduplicateRows(r);
  EXPECT_EQ(result.duplicates_removed, 2);
  ASSERT_EQ(result.relation.NumRows(), 3);
  EXPECT_EQ(result.relation.Row(0), (std::vector<std::string>{"1", "x"}));
  EXPECT_EQ(result.relation.Row(1), (std::vector<std::string>{"2", "y"}));
  EXPECT_EQ(result.relation.Row(2), (std::vector<std::string>{"2", "z"}));
  ExpectDedupCorrectAtAllThreadCounts(r);
}

TEST(DeduplicateTest, NoDuplicatesIsIdentity) {
  Relation r = Relation::FromRows({"A"}, {{"1"}, {"2"}, {"3"}});
  DeduplicateResult result = DeduplicateRows(r);
  EXPECT_EQ(result.duplicates_removed, 0);
  EXPECT_EQ(result.relation.NumRows(), 3);
  ExpectIdentical(result.relation, r);
}

TEST(DeduplicateTest, AllRowsIdentical) {
  Relation r = Relation::FromRows({"A", "B"},
                                  {{"k", "k"}, {"k", "k"}, {"k", "k"}});
  DeduplicateResult result = DeduplicateRows(r);
  EXPECT_EQ(result.duplicates_removed, 2);
  EXPECT_EQ(result.relation.NumRows(), 1);
  // Large enough to span several chunks and partitions.
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(3, 4, 5, /*distinct=*/1, /*rows=*/100000));
}

TEST(DeduplicateTest, EmptyRelation) {
  Relation r = Relation::FromRows({"A"}, {});
  DeduplicateResult result = DeduplicateRows(r);
  EXPECT_EQ(result.duplicates_removed, 0);
  EXPECT_EQ(result.relation.NumRows(), 0);
  ExpectDedupCorrectAtAllThreadCounts(r);
}

TEST(DeduplicateTest, SingleRow) {
  ExpectDedupCorrectAtAllThreadCounts(
      Relation::FromRows({"A", "B", "C"}, {{"1", "x", "k"}}));
}

TEST(DeduplicateTest, RowsDifferingInOneColumnSurvive) {
  Relation r = Relation::FromRows({"A", "B", "C"},
                                  {{"1", "1", "1"}, {"1", "1", "2"}});
  EXPECT_EQ(DeduplicateRows(r).duplicates_removed, 0);
}

TEST(DeduplicateTest, LargeRandomRelationMatchesNaive) {
  Relation r = RandomRelation(17, 4, 500, 3);
  DeduplicateResult result = DeduplicateRows(r);
  // Count distinct rows naively.
  std::set<std::vector<std::string>> distinct;
  for (RowId row = 0; row < r.NumRows(); ++row) distinct.insert(r.Row(row));
  EXPECT_EQ(result.relation.NumRows(),
            static_cast<RowId>(distinct.size()));
  EXPECT_EQ(result.duplicates_removed,
            r.NumRows() - static_cast<RowId>(distinct.size()));
  // Deduped relation has no duplicates.
  EXPECT_EQ(DeduplicateRows(result.relation).duplicates_removed, 0);
}

TEST(DeduplicateTest, IdenticalAcrossThreadCounts) {
  // 17,280 possible rows among 200K: most rows are duplicates.
  const Relation r =
      MakeCategorical(200000, {6, 4, 8, 3, 5, 2, 3}, 41, "dups");
  ExpectDedupCorrectAtAllThreadCounts(r);
  EXPECT_GT(DeduplicateRows(r).duplicates_removed, 180000);
}

TEST(DeduplicateTest, RowsWiderThan64BitsCompareCodes) {
  // 30 columns at 4 bits each do not pack into a 64-bit key, so rows are
  // keyed by a hash and matches are confirmed on the codes.
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(5, 30, 9, /*distinct=*/3000, /*rows=*/40000));
}

TEST(DeduplicateTest, PackedKeyBoundary) {
  // 16 columns of cardinality 16 fill exactly 64 bits (still packed); a
  // 17th column tips the key over into the hashed form.
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(7, 16, 16, /*distinct=*/2000, /*rows=*/30000));
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(8, 17, 16, /*distinct=*/2000, /*rows=*/30000));
  // Rows that only swap the first and the last column's values stay
  // distinct: the last column's bits must not wrap onto the first's.
  for (const int cols : {16, 17}) {
    std::vector<std::vector<std::string>> rows;
    for (int v = 0; v < 16; ++v) {
      rows.emplace_back(static_cast<size_t>(cols), "v" + std::to_string(v));
    }
    std::vector<std::string> a(static_cast<size_t>(cols), "v0");
    std::vector<std::string> b = a;
    a.front() = b.back() = "v1";
    a.back() = b.front() = "v2";
    rows.insert(rows.end(), {a, b, a});
    std::vector<std::string> names;
    for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    const Relation r = Relation::FromRows(names, rows);
    EXPECT_EQ(DeduplicateRows(r).duplicates_removed, 1) << cols;
    ExpectDedupCorrectAtAllThreadCounts(r);
  }
}

TEST(DeduplicateTest, ConstantColumns) {
  // Constant columns take 0 bits in the packed key.
  ExpectDedupCorrectAtAllThreadCounts(
      MakeCategorical(50000, {1, 3, 1, 4, 1}, 11, "constants"));
  // All-constant: every row is the same.
  const Relation all_constant =
      MakeCategorical(20000, {1, 1, 1}, 12, "all_constant");
  EXPECT_EQ(DeduplicateRows(all_constant).relation.NumRows(), 1);
  ExpectDedupCorrectAtAllThreadCounts(all_constant);
}

TEST(DeduplicateTest, DistinctRowIdsAreFirstOccurrences) {
  const Relation r = Relation::FromRows(
      {"A", "B"}, {{"1", "x"}, {"2", "y"}, {"1", "x"}, {"3", "x"},
                   {"2", "y"}, {"4", "z"}});
  for (const int threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(DistinctRowIds(r, &pool), (std::vector<RowId>{0, 1, 3, 5}));
  }
}

TEST(DeduplicateTest, CountsRowsAndDuplicatesInRegistry) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const Relation r =
      Relation::FromRows({"A"}, {{"1"}, {"1"}, {"2"}, {"1"}, {"3"}});
  DeduplicateRows(r);
  const MetricsSnapshot delta =
      MetricsRegistry::Delta(before, MetricsRegistry::Global().Snapshot());
  int64_t rows = -1;
  int64_t removed = -1;
  for (const auto& [name, value] : delta) {
    if (name == "dedup.rows") rows = value;
    if (name == "dedup.duplicates_removed") removed = value;
  }
  EXPECT_EQ(rows, 5);
  EXPECT_EQ(removed, 2);
}

}  // namespace
}  // namespace muds
