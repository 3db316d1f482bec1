#include "data/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/csv.h"
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

// The naive reference: the first row of each distinct code vector, in row
// order. A stable sort of the rows by their codes puts each row's first
// occurrence at the head of its run.
std::vector<RowId> NaiveFirstOccurrences(const Relation& r) {
  const auto less = [&r](RowId a, RowId b) {
    for (int c = 0; c < r.NumColumns(); ++c) {
      if (r.Code(a, c) != r.Code(b, c)) return r.Code(a, c) < r.Code(b, c);
    }
    return false;
  };
  std::vector<RowId> order(static_cast<size_t>(r.NumRows()));
  std::iota(order.begin(), order.end(), RowId{0});
  std::stable_sort(order.begin(), order.end(), less);
  std::vector<RowId> first;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || less(order[i - 1], order[i])) first.push_back(order[i]);
  }
  std::sort(first.begin(), first.end());
  return first;
}

// Product of the cardinalities of all columns.
int64_t CardinalityProduct(const Relation& r) {
  int64_t product = 1;
  for (int c = 0; c < r.NumColumns(); ++c) product *= r.Cardinality(c);
  return product;
}

// The rule that picks the bitmap pass: Π of the non-constant columns'
// cardinalities is at most the row count.
bool TakesBitmapPass(const Relation& r) {
  int64_t product = 1;
  for (int c = 0; c < r.NumColumns() && product <= r.NumRows(); ++c) {
    if (r.Cardinality(c) > 1) product *= r.Cardinality(c);
  }
  return product <= r.NumRows();
}

// Checks every thread count against the oracles and against each other:
// DistinctRowIds against the naive first occurrences, the result relation
// against the string-row oracle, and the rows credited to
// dedup.direct_rows against the bitmap-pass rule.
void ExpectDedupCorrectAtAllThreadCounts(const Relation& input) {
  const std::vector<RowId> first = NaiveFirstOccurrences(input);
  const int64_t direct_rows = TakesBitmapPass(input) ? input.NumRows() : 0;
  const DeduplicateResult reference = DedupAt(input, 1);
  ExpectFirstOccurrences(input, reference);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const MetricsScope scope;
    EXPECT_EQ(DistinctRowIds(input, &pool), first);
    EXPECT_EQ(ScopeValue(scope, "dedup.direct_rows"), direct_rows);
    const DeduplicateResult result = DeduplicateRows(input, &pool);
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
  // 30 columns of 9 values have 9^30 > 2^64 ranks, so rows are keyed by a
  // hash and matches are confirmed on the codes.
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(5, 30, 9, /*distinct=*/3000, /*rows=*/40000));
}

TEST(DeduplicateTest, PackedKeyBoundary) {
  // 16 columns of cardinality 16 have exactly 2^64 ranks (still exact); a
  // 17th column tips the key over into the hashed form.
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(7, 16, 16, /*distinct=*/2000, /*rows=*/30000));
  ExpectDedupCorrectAtAllThreadCounts(
      RepeatedRows(8, 17, 16, /*distinct=*/2000, /*rows=*/30000));
  // Rows that only swap the first and the last column's values stay
  // distinct: the last column's weight must not wrap onto the first's.
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
  // Constant columns add nothing to the rank.
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

// `rows` rows over columns of the given cardinalities, each value drawn
// uniformly, so many rows repeat.
Relation Drawn(int64_t rows, const std::vector<int64_t>& cardinalities,
               uint64_t seed) {
  const Relation r = MakeCategorical(rows, cardinalities, seed, "drawn");
  for (int c = 0; c < r.NumColumns(); ++c) {
    EXPECT_EQ(r.Cardinality(c), cardinalities[static_cast<size_t>(c)]);
  }
  return r;
}

TEST(DeduplicateTest, PigeonholeBoundPicksThePath) {
  // Π = 7·8·9·11·13 = 72,072 with rows spanning two 64K-row chunks:
  // Π ≤ n takes the bitmap pass over ranks, Π = n + 1 hashes.
  const std::vector<int64_t> cards = {7, 8, 9, 11, 13};
  for (const int64_t delta : {-1, 0, 1}) {
    SCOPED_TRACE("product - rows = " + std::to_string(delta));
    const Relation r = Drawn(72072 - delta, cards, 31 + delta);
    ASSERT_EQ(CardinalityProduct(r), r.NumRows() + delta);
    ExpectDedupCorrectAtAllThreadCounts(r);
  }
  // Π = n with every combination once: the bitmap fills and nothing is
  // removed.
  std::vector<std::vector<std::string>> rows;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 5; ++c) {
        rows.push_back({std::to_string(a), std::to_string(b),
                        std::to_string(c)});
      }
    }
  }
  Rng rng(4);
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.NextBelow(i + 1)]);
  }
  const Relation all = Relation::FromRows({"A", "B", "C"}, rows);
  ASSERT_EQ(CardinalityProduct(all), all.NumRows());
  ExpectDedupCorrectAtAllThreadCounts(all);
  EXPECT_EQ(DeduplicateRows(all).duplicates_removed, 0);
}

TEST(DeduplicateTest, NullUnequalRowsNeverRepeat) {
  // Each NULL takes its own code, so rows 0 and 1 stay apart while rows 2
  // and 3 repeat. A has three codes on four rows: Π = 3 ≤ 4.
  CsvOptions unequal;
  unequal.nulls = NullSemantics::kNullUnequal;
  const Result<Relation> small =
      CsvReader::ReadString("A,B\n,1\n,1\nx,1\nx,1\n", unequal);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(NaiveFirstOccurrences(small.value()),
            (std::vector<RowId>{0, 1, 2}));
  ExpectDedupCorrectAtAllThreadCounts(small.value());
  // Every NULL adds a code to A. One in ten rows: Π = (2,000 + 5) · 3
  // ≤ 20,000 rows, the bitmap pass. One in two: Π = 30,015, hashed. Under
  // NULL = NULL the same text has Π = 18.
  for (const int every : {10, 2}) {
    SCOPED_TRACE("NULL every " + std::to_string(every) + " rows");
    std::string csv = "A,B\n";
    Rng rng(8);
    for (int row = 0; row < 20000; ++row) {
      csv += row % every == 0 ? "" : std::to_string(rng.NextBelow(5));
      csv += "," + std::to_string(rng.NextBelow(3)) + "\n";
    }
    const Result<Relation> nulls_unequal = CsvReader::ReadString(csv, unequal);
    ASSERT_TRUE(nulls_unequal.ok());
    ASSERT_EQ(CardinalityProduct(nulls_unequal.value()),
              (20000 / every + 5) * 3);
    ExpectDedupCorrectAtAllThreadCounts(nulls_unequal.value());
    const Result<Relation> nulls_equal = CsvReader::ReadString(csv);
    ASSERT_TRUE(nulls_equal.ok());
    ExpectDedupCorrectAtAllThreadCounts(nulls_equal.value());
  }
}

TEST(DeduplicateTest, AppendGrownDictionaries) {
  // The batch brings a new value to each column, so AppendBatch rewrites
  // the old codes; the grown relation keeps its base rows' duplicates.
  Relation grown = MakeCategorical(30000, {4, 3, 5}, 21, "base");
  std::vector<std::vector<std::string>> batch_rows;
  for (RowId row = 0; row < 1000; ++row) {
    std::vector<std::string> values = grown.Row(row % 50);
    if (row % 7 == 0) values[static_cast<size_t>(row % 3)] = "zz";
    batch_rows.push_back(std::move(values));
  }
  const std::vector<int64_t> base_cards = {grown.Cardinality(0),
                                           grown.Cardinality(1),
                                           grown.Cardinality(2)};
  grown.AppendBatch(
      Relation::FromRows(grown.ColumnNames(), batch_rows, "batch"));
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(grown.Cardinality(c), base_cards[static_cast<size_t>(c)] + 1);
  }
  ExpectDedupCorrectAtAllThreadCounts(grown);
}

TEST(DeduplicateTest, DirectRowsCountTheBitmapPass) {
  // The long-narrow shape: Π = 362,880 below 400,000 rows.
  const Relation narrow =
      MakeCategorical(400000, {6, 4, 8, 3, 5, 7, 2, 9}, 5, "long_narrow");
  ASSERT_LE(CardinalityProduct(narrow), narrow.NumRows());
  ThreadPool pool(4);
  {
    const MetricsScope scope;
    DistinctRowIds(narrow, &pool);
    EXPECT_EQ(ScopeValue(scope, "dedup.direct_rows"), 400000);
    EXPECT_EQ(ScopeValue(scope, "dedup.rows"), 400000);
  }
  // A served table: 4,000 x 10 at cardinality 16, Π = 2^40.
  const Relation served =
      MakeCategorical(4000, std::vector<int64_t>(10, 16), 6, "served");
  const MetricsScope scope;
  EXPECT_EQ(DistinctRowIds(served, &pool), NaiveFirstOccurrences(served));
  EXPECT_EQ(ScopeValue(scope, "dedup.direct_rows"), 0);
  EXPECT_EQ(ScopeValue(scope, "dedup.rows"), 4000);
}

TEST(DeduplicateTest, SelectRowsMatchesTheReferenceDictionaries) {
  // FromRows of the selected rows is the reference: sorted, minimal
  // dictionaries and codes that are value ranks.
  const Relation r = MakeCategorical(3000, {4, 6, 1, 3}, 15, "select");
  const auto reference = [&r](const std::vector<RowId>& rows) {
    std::vector<std::vector<std::string>> values;
    for (const RowId row : rows) values.push_back(r.Row(row));
    return Relation::FromRows(r.ColumnNames(), values, r.name());
  };
  // Every value kept: the reverse of the first occurrences.
  std::vector<RowId> keep_all = NaiveFirstOccurrences(r);
  std::reverse(keep_all.begin(), keep_all.end());
  // A value of column 0 drops out: the rows that do not hold code 0 there.
  std::vector<RowId> drop_one;
  for (RowId row = 0; row < r.NumRows(); ++row) {
    if (r.Code(row, 0) != 0) drop_one.push_back(row);
  }
  for (const auto& rows : {keep_all, drop_one}) {
    const Relation expected = reference(rows);
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      ExpectIdentical(r.SelectRows(rows, &pool), expected);
    }
  }
  EXPECT_EQ(r.SelectRows(keep_all).GetColumn(0).dictionary,
            r.GetColumn(0).dictionary);
  EXPECT_EQ(r.SelectRows(drop_one).Cardinality(0), r.Cardinality(0) - 1);
}

}  // namespace
}  // namespace muds
