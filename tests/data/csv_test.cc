#include "data/csv.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/mmap_file.h"
#include "test_util.h"

namespace muds {
namespace {

TEST(CsvReaderTest, SimpleDocument) {
  auto result = CsvReader::ReadString("A,B\n1,x\n2,y\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& r = result.value();
  EXPECT_EQ(r.NumColumns(), 2);
  EXPECT_EQ(r.NumRows(), 2);
  EXPECT_EQ(r.ColumnName(0), "A");
  EXPECT_EQ(r.Value(1, 1), "y");
}

TEST(CsvReaderTest, MissingTrailingNewline) {
  auto result = CsvReader::ReadString("A,B\n1,x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 1);
  EXPECT_EQ(result.value().Value(0, 1), "x");
}

TEST(CsvReaderTest, CrLfLineEndings) {
  auto result = CsvReader::ReadString("A,B\r\n1,x\r\n2,y\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().Value(0, 0), "1");
}

TEST(CsvReaderTest, QuotedFields) {
  auto result = CsvReader::ReadString(
      "A,B\n\"hello, world\",\"line\nbreak\"\n\"he said \"\"hi\"\"\",x\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& r = result.value();
  EXPECT_EQ(r.Value(0, 0), "hello, world");
  EXPECT_EQ(r.Value(0, 1), "line\nbreak");
  EXPECT_EQ(r.Value(1, 0), "he said \"hi\"");
}

TEST(CsvReaderTest, EmptyFieldsArePreserved) {
  auto result = CsvReader::ReadString("A,B,C\n1,,3\n,,\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Value(0, 1), "");
  EXPECT_EQ(result.value().Value(1, 0), "");
}

TEST(CsvReaderTest, ArityMismatchIsParseError) {
  auto result = CsvReader::ReadString("A,B\n1,2\n1,2,3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, UnterminatedQuoteIsParseError) {
  auto result = CsvReader::ReadString("A\n\"oops\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, EmptyInputIsParseError) {
  EXPECT_FALSE(CsvReader::ReadString("").ok());
}

TEST(CsvReaderTest, HeaderOnlyYieldsEmptyRelation) {
  auto result = CsvReader::ReadString("A,B\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 0);
  EXPECT_EQ(result.value().NumColumns(), 2);
}

TEST(CsvReaderTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto result = CsvReader::ReadString("1,x\n2,y\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().ColumnName(0), "col0");
  EXPECT_EQ(result.value().Value(0, 0), "1");
}

TEST(CsvReaderTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  auto result = CsvReader::ReadString("A;B\n1;2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Value(0, 1), "2");
}

TEST(CsvReaderTest, MaxRowsLimit) {
  CsvOptions options;
  options.max_rows = 2;
  auto result = CsvReader::ReadString("A\n1\n2\n3\n4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2);
}

TEST(CsvReaderTest, MaxRowsZeroWithoutHeaderYieldsEmptyRelation) {
  CsvOptions options;
  options.has_header = false;
  options.max_rows = 0;
  auto result = CsvReader::ReadString("1,x\n2,y\n", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumRows(), 0);
  EXPECT_EQ(result.value().NumColumns(), 2);
  EXPECT_EQ(result.value().ColumnName(1), "col1");
}

TEST(CsvReaderTest, MaxRowsZeroWithHeaderYieldsEmptyRelation) {
  CsvOptions options;
  options.max_rows = 0;
  auto result = CsvReader::ReadString("A,B\n1,x\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 0);
  EXPECT_EQ(result.value().NumColumns(), 2);
}

TEST(CsvReaderTest, InteriorBlankLinesAreSkipped) {
  auto result = CsvReader::ReadString("A,B\n1,x\n\n2,y\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().Value(1, 0), "2");
}

TEST(CsvReaderTest, TrailingBlankLinesAreSkipped) {
  auto result = CsvReader::ReadString("A,B\n1,x\n2,y\n\n\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumRows(), 2);
}

TEST(CsvReaderTest, CrLfBlankLinesAreSkipped) {
  auto result = CsvReader::ReadString("A,B\r\n\r\n1,x\r\n\r\n2,y\r\n\r\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().Value(0, 0), "1");
}

TEST(CsvReaderTest, BlankLineIsNotAnEmptyRecordInSingleColumnFile) {
  // A single-column file with a blank line: the blank is skipped, not read
  // as a row holding one empty value.
  auto result = CsvReader::ReadString("A\n1\n\n2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2);
}

TEST(CsvReaderTest, QuotedEmptyFieldIsARealRecord) {
  // "" on its own line is content (one empty field), not a blank line.
  auto result = CsvReader::ReadString("A\n\"\"\n1\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().Value(0, 0), "");
}

TEST(CsvReaderTest, ArityErrorNamesInputAndDataRow) {
  auto result =
      CsvReader::ReadString("A,B\n1,2\n1,2,3\n", CsvOptions{}, "input.csv");
  ASSERT_FALSE(result.ok());
  // 1-based data-row numbering: the bad row is the second *data* row; the
  // header does not count.
  EXPECT_NE(result.status().message().find("input.csv"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("data row 2"), std::string::npos)
      << result.status().ToString();
}

TEST(CsvReaderTest, ArityErrorRowNumberSkipsBlankLines) {
  auto result =
      CsvReader::ReadString("A,B\n1,2\n\n1,2,3\n", CsvOptions{}, "in.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("data row 2"), std::string::npos)
      << result.status().ToString();
}

TEST(CsvRoundTripTest, WriteThenReadPreservesContent) {
  Relation original = Relation::FromRows(
      {"name", "note"},
      {{"alice", "likes, commas"}, {"bob", "quote \" here"}, {"eve", ""}});
  const std::string text = CsvWriter::ToString(original);
  auto result = CsvReader::ReadString(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& r = result.value();
  ASSERT_EQ(r.NumRows(), original.NumRows());
  for (RowId row = 0; row < r.NumRows(); ++row) {
    EXPECT_EQ(r.Row(row), original.Row(row));
  }
}

TEST(CsvFileTest, WriteAndReadFile) {
  const std::string path = ::testing::TempDir() + "/muds_csv_test.csv";
  Relation original =
      Relation::FromRows({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  ASSERT_TRUE(CsvWriter::WriteFile(original, path).ok());
  auto result = CsvReader::ReadFile(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIoError) {
  auto result = CsvReader::ReadFile("/nonexistent/muds/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvFileTest, EmptyFileIsParseErrorOnEveryPath) {
  // Regression: a size-0 file forced down the mmap path produced an empty
  // (nullptr) mapping whose view was dereferenced. Both engines must report
  // the same clean parse error instead.
  const std::string path = ::testing::TempDir() + "/muds_csv_empty.csv";
  { std::ofstream touch(path); }
  for (size_t mmap_min_bytes : {size_t{0}, SIZE_MAX}) {
    CsvOptions options;
    options.mmap_min_bytes = mmap_min_bytes;
    auto result = CsvReader::ReadFile(path, options);
    ASSERT_FALSE(result.ok()) << "mmap_min_bytes=" << mmap_min_bytes;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError)
        << result.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(CsvFileTest, SmallFileThroughMmapPathParses) {
  // mmap_min_bytes=0 forces even a tiny file through the mapped engine; the
  // parse must match the buffered read exactly.
  const std::string path = ::testing::TempDir() + "/muds_csv_mmap.csv";
  Relation original =
      Relation::FromRows({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  ASSERT_TRUE(CsvWriter::WriteFile(original, path).ok());
  CsvOptions options;
  options.mmap_min_bytes = 0;
  auto result = CsvReader::ReadFile(path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().NumRows(), 2);
  EXPECT_EQ(result.value().Row(1), original.Row(1));
  std::remove(path.c_str());
}

std::string MmapTempPath(const char* stem) {
  return ::testing::TempDir() + "/muds_csv_mmap_test_" + stem;
}

TEST(MappedFileTest, EmptyFileYieldsUnmappedEmptyView) {
  // mmap(len=0) is invalid, so a size-0 file opens as "not mapped"; view()
  // must hand back an empty view instead of wrapping a null pointer.
  const std::string path = MmapTempPath("empty");
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().size(), 0u);
  EXPECT_TRUE(mapped.value().view().empty());
  // Advice on an unmapped file must be a harmless no-op.
  mapped.value().Advise(MappedFile::Advice::kSequential);
  std::remove(path.c_str());
}

TEST(MappedFileTest, MapsFileContentsReadOnly) {
  const std::string path = MmapTempPath("mapped");
  const std::string payload = "hello, mapped world";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(payload.c_str(), f);
    std::fclose(f);
  }
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().view(), payload);
  // Advice is best-effort; exercising it must not disturb the mapping.
  mapped.value().Advise(MappedFile::Advice::kSequential);
  mapped.value().Advise(MappedFile::Advice::kRandom);
  EXPECT_EQ(mapped.value().view(), payload);
  EXPECT_FALSE(MappedFile::Open(MmapTempPath("mapped_missing")).ok());
  std::remove(path.c_str());
}

TEST(CsvMmapTest, MmapIngestMatchesBufferedIngest) {
  const Relation original = RandomRelation(9, 4, 400, 10);
  const std::string path = MmapTempPath("csv");
  ASSERT_TRUE(CsvWriter::WriteFile(original, path).ok());

  CsvOptions buffered;
  buffered.mmap_min_bytes = static_cast<size_t>(-1);  // Never map.
  CsvOptions mapped;
  mapped.mmap_min_bytes = 0;  // Always map.
  Result<Relation> a = CsvReader::ReadFile(path, buffered);
  Result<Relation> b = CsvReader::ReadFile(path, mapped);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a.value().NumColumns(), b.value().NumColumns());
  ASSERT_EQ(a.value().NumRows(), b.value().NumRows());
  EXPECT_EQ(a.value().ColumnNames(), b.value().ColumnNames());
  for (int c = 0; c < a.value().NumColumns(); ++c) {
    EXPECT_EQ(a.value().GetColumn(c).dictionary,
              b.value().GetColumn(c).dictionary)
        << "column " << c;
    EXPECT_EQ(a.value().GetColumn(c).codes, b.value().GetColumn(c).codes)
        << "column " << c;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace muds
