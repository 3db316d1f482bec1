#include "data/relation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace muds {
namespace {

Relation SampleRelation() {
  return Relation::FromRows({"A", "B", "C"},
                            {{"x", "1", "k"},
                             {"y", "1", "k"},
                             {"x", "2", "k"},
                             {"z", "2", "k"}},
                            "sample");
}

TEST(RelationTest, BasicAccessors) {
  Relation r = SampleRelation();
  EXPECT_EQ(r.name(), "sample");
  EXPECT_EQ(r.NumRows(), 4);
  EXPECT_EQ(r.NumColumns(), 3);
  EXPECT_EQ(r.ColumnName(0), "A");
  EXPECT_EQ(r.Value(0, 0), "x");
  EXPECT_EQ(r.Value(3, 0), "z");
  EXPECT_EQ(r.Value(2, 1), "2");
  EXPECT_EQ(r.Row(1), (std::vector<std::string>{"y", "1", "k"}));
}

TEST(RelationTest, DictionaryIsSortedAndDeduplicated) {
  Relation r = SampleRelation();
  const Column& a = r.GetColumn(0);
  EXPECT_EQ(a.dictionary, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(r.Cardinality(0), 3);
  EXPECT_EQ(r.Cardinality(1), 2);
  EXPECT_EQ(r.Cardinality(2), 1);
  // Codes reflect sorted ranks.
  EXPECT_EQ(r.Code(0, 0), 0);  // "x"
  EXPECT_EQ(r.Code(1, 0), 1);  // "y"
  EXPECT_EQ(r.Code(3, 0), 2);  // "z"
}

TEST(RelationTest, ConstantAndActiveColumns) {
  Relation r = SampleRelation();
  EXPECT_FALSE(r.IsConstantColumn(0));
  EXPECT_TRUE(r.IsConstantColumn(2));
  EXPECT_EQ(r.ActiveColumns(), ColumnSet::FromIndices({0, 1}));
}

TEST(RelationTest, SelectRows) {
  Relation r = SampleRelation();
  Relation sub = r.SelectRows({0, 2});
  EXPECT_EQ(sub.NumRows(), 2);
  EXPECT_EQ(sub.Value(0, 0), "x");
  EXPECT_EQ(sub.Value(1, 1), "2");
  // Dictionaries shrink to the surviving values.
  EXPECT_EQ(sub.Cardinality(0), 1);
}

TEST(RelationTest, SelectRowsOnPoolMatchesSerial) {
  const Relation r = SampleRelation();
  const std::vector<RowId> rows = {3, 0, 2};
  const Relation serial = r.SelectRows(rows);
  ThreadPool pool(4);
  const Relation parallel = r.SelectRows(rows, &pool);
  ASSERT_EQ(parallel.NumRows(), serial.NumRows());
  for (int c = 0; c < r.NumColumns(); ++c) {
    EXPECT_EQ(parallel.GetColumn(c).dictionary,
              serial.GetColumn(c).dictionary);
    EXPECT_EQ(parallel.GetColumn(c).codes, serial.GetColumn(c).codes);
  }
}

TEST(RelationTest, SelectColumns) {
  Relation r = SampleRelation();
  Relation sub = r.SelectColumns({2, 0});
  EXPECT_EQ(sub.NumColumns(), 2);
  EXPECT_EQ(sub.ColumnName(0), "C");
  EXPECT_EQ(sub.ColumnName(1), "A");
  EXPECT_EQ(sub.NumRows(), 4);
  EXPECT_EQ(sub.Value(3, 1), "z");
}

TEST(RelationTest, EmptyRelation) {
  Relation r = Relation::FromRows({"A", "B"}, {});
  EXPECT_EQ(r.NumRows(), 0);
  EXPECT_EQ(r.NumColumns(), 2);
  EXPECT_TRUE(r.IsConstantColumn(0));
  EXPECT_TRUE(r.ActiveColumns().Empty());
}

TEST(RelationBuilderTest, BuildsIncrementally) {
  RelationBuilder builder({"A"}, "t");
  builder.AddRow({"b"});
  builder.AddRow({"a"});
  builder.AddRow({"b"});
  EXPECT_EQ(builder.NumRows(), 3);
  Relation r = std::move(builder).Build();
  EXPECT_EQ(r.NumRows(), 3);
  EXPECT_EQ(r.GetColumn(0).dictionary,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.Code(0, 0), 1);
  EXPECT_EQ(r.Code(1, 0), 0);
}

TEST(RelationTest, EmptyStringIsAnOrdinaryValue) {
  Relation r = Relation::FromRows({"A"}, {{""}, {"x"}, {""}});
  EXPECT_EQ(r.Cardinality(0), 2);
  EXPECT_EQ(r.Value(0, 0), "");
}

void ExpectSameInstance(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.GetColumn(c).dictionary, b.GetColumn(c).dictionary)
        << "column " << c;
    EXPECT_EQ(a.GetColumn(c).codes, b.GetColumn(c).codes) << "column " << c;
  }
}

TEST(RelationAppendTest, AppendBatchEqualsFromRowsOfConcatenation) {
  const std::vector<std::vector<std::string>> base_rows = {
      {"x", "1", "k"}, {"y", "1", "k"}, {"x", "2", "k"}};
  // The batch reuses values, interleaves new ones at both dictionary ends,
  // and changes the constant column.
  const std::vector<std::vector<std::string>> batch_rows = {
      {"a", "2", "k"}, {"z", "0", "m"}, {"y", "3", "k"}};
  Relation relation = Relation::FromRows({"A", "B", "C"}, base_rows);
  const Relation batch = Relation::FromRows({"A", "B", "C"}, batch_rows);

  ASSERT_EQ(relation.NumRows(), 3);
  relation.AppendBatch(batch);
  EXPECT_EQ(relation.NumRows(), 6);

  std::vector<std::vector<std::string>> all = base_rows;
  all.insert(all.end(), batch_rows.begin(), batch_rows.end());
  ExpectSameInstance(relation, Relation::FromRows({"A", "B", "C"}, all));
}

TEST(RelationAppendTest, AppendWithNoNewValuesKeepsCodesStable) {
  Relation relation = Relation::FromRows({"A"}, {{"p"}, {"q"}});
  const CodeVector codes_before = relation.GetColumn(0).codes;
  const Relation batch = Relation::FromRows({"A"}, {{"q"}, {"p"}});
  relation.AppendBatch(batch);
  EXPECT_EQ(relation.NumRows(), 4);
  EXPECT_EQ(relation.GetColumn(0).dictionary,
            (std::vector<std::string>{"p", "q"}));
  // Old prefix codes are untouched when the dictionary did not grow.
  for (size_t i = 0; i < codes_before.size(); ++i) {
    EXPECT_EQ(relation.GetColumn(0).codes[i], codes_before[i]);
  }
  EXPECT_EQ(relation.Value(2, 0), "q");
  EXPECT_EQ(relation.Value(3, 0), "p");
}

TEST(RelationAppendTest, ParallelAppendMatchesSequential) {
  const std::vector<std::string> names = {"A", "B", "C", "D"};
  std::vector<std::vector<std::string>> base_rows, batch_rows;
  for (int i = 0; i < 200; ++i) {
    base_rows.push_back({std::to_string(i % 7), std::to_string(i % 3),
                         std::to_string(i), "c"});
  }
  for (int i = 0; i < 90; ++i) {
    batch_rows.push_back({std::to_string(i % 11), std::to_string(i % 5),
                          std::to_string(1000 + i), i % 2 ? "c" : "d"});
  }
  Relation sequential = Relation::FromRows(names, base_rows);
  Relation parallel = Relation::FromRows(names, base_rows);
  const Relation batch = Relation::FromRows(names, batch_rows);

  sequential.AppendBatch(batch);
  ThreadPool pool(4);
  parallel.AppendBatch(batch, &pool);
  ExpectSameInstance(sequential, parallel);
}

}  // namespace
}  // namespace muds
