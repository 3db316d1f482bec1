// Property tests: CSV write → read is the identity for arbitrary cell
// contents, including separators, quotes, and newlines inside values.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"

namespace muds {
namespace {

std::string RandomCell(Rng* rng) {
  static const char kAlphabet[] =
      "abcXYZ019 ,\"\n\r;\t'\\|#.:{}[]-_=+!?*&^%$@~`<>/";
  std::string cell;
  const int length = static_cast<int>(rng->NextBelow(12));
  for (int i = 0; i < length; ++i) {
    cell += kAlphabet[rng->NextBelow(sizeof(kAlphabet) - 1)];
  }
  return cell;
}

class CsvRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvRoundTripTest, WriteReadIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  const int cols = 1 + static_cast<int>(rng.NextBelow(6));
  const int rows = static_cast<int>(rng.NextBelow(40));

  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    // Header cells share the same arbitrary-content rules; make them
    // non-empty so they read back as the header.
    names.push_back("h" + RandomCell(&rng));
  }
  std::vector<std::vector<std::string>> data;
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng));
    data.push_back(std::move(row));
  }
  Relation original = Relation::FromRows(names, data);

  const std::string text = CsvWriter::ToString(original);
  auto parsed = CsvReader::ReadString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Relation& round = parsed.value();

  ASSERT_EQ(round.NumColumns(), original.NumColumns());
  ASSERT_EQ(round.NumRows(), original.NumRows());
  EXPECT_EQ(round.ColumnNames(), original.ColumnNames());
  for (RowId r = 0; r < round.NumRows(); ++r) {
    EXPECT_EQ(round.Row(r), original.Row(r)) << "row " << r;
  }
}

TEST_P(CsvRoundTripTest, WriteReadIdentityUnderParallelChunkedIngest) {
  // Same identity property through the buffered engine with adversarial
  // chunk sizes and thread counts: chunk boundaries land inside quoted
  // newlines, doubled quotes, and \r\n breaks of the serialized text.
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 11);
  const int cols = 1 + static_cast<int>(rng.NextBelow(5));
  const int rows = static_cast<int>(rng.NextBelow(30));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("h" + RandomCell(&rng));
  std::vector<std::vector<std::string>> data;
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng));
    data.push_back(std::move(row));
  }
  Relation original = Relation::FromRows(names, data);
  const std::string text = CsvWriter::ToString(original);

  CsvOptions options;
  options.num_threads = 1 + static_cast<int>(rng.NextBelow(8));
  options.chunk_bytes = 1 + rng.NextBelow(text.size());
  auto parsed = CsvReader::ReadString(text, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().NumRows(), original.NumRows());
  EXPECT_EQ(parsed.value().ColumnNames(), original.ColumnNames());
  for (RowId r = 0; r < original.NumRows(); ++r) {
    EXPECT_EQ(parsed.value().Row(r), original.Row(r)) << "row " << r;
  }
}

TEST_P(CsvRoundTripTest, WriteReadIdentityWithCustomSeparator) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 3);
  CsvOptions options;
  options.separator = ';';
  Relation original = Relation::FromRows(
      {"a", "b"},
      {{RandomCell(&rng), RandomCell(&rng)},
       {RandomCell(&rng), ";;" + RandomCell(&rng)}});
  const std::string text = CsvWriter::ToString(original, options);
  auto parsed = CsvReader::ReadString(text, options);
  ASSERT_TRUE(parsed.ok());
  for (RowId r = 0; r < original.NumRows(); ++r) {
    EXPECT_EQ(parsed.value().Row(r), original.Row(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest, ::testing::Range(1, 26));

TEST(CsvParserEdgeTest, LoneQuotedEmptyField) {
  auto parsed = CsvReader::ReadString("A\n\"\"\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Value(0, 0), "");
}

TEST(CsvParserEdgeTest, QuoteAppearingMidField) {
  // A quote that does not open the field is literal content.
  auto parsed = CsvReader::ReadString("A,B\nab\"c,2\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Value(0, 0), "ab\"c");
}

TEST(CsvParserEdgeTest, WindowsAndUnixLineBreaksMixed) {
  auto parsed = CsvReader::ReadString("A\r\n1\n2\r\n3\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().NumRows(), 3);
}

}  // namespace
}  // namespace muds
