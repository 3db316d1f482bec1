// Differential tests for the parallel buffered ingest engine (data/ingest.h)
// against the reference reader (ReferenceCsvReader, testing/reference_csv.h).
//
// The engine's contract is bit-identity: same dictionaries, same codes, same
// error messages — for every chunking and every thread count. The tests force
// chunk boundaries into every position of documents that exercise the scanner
// edge cases (quoted newlines, \r\n breaks, doubled quotes, blank lines,
// separators at chunk edges) and assert exact equality.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "data/csv.h"
#include "data/ingest.h"
#include "testing/reference_csv.h"

namespace muds {
namespace {

// Asserts bit-identity: column names, dictionaries, and code vectors.
void ExpectIdentical(const Relation& got, const Relation& want,
                     const std::string& context) {
  ASSERT_EQ(got.NumColumns(), want.NumColumns()) << context;
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  EXPECT_EQ(got.ColumnNames(), want.ColumnNames()) << context;
  for (int c = 0; c < got.NumColumns(); ++c) {
    const Column& a = got.GetColumn(c);
    const Column& b = want.GetColumn(c);
    ASSERT_EQ(a.dictionary, b.dictionary) << context << " column " << c;
    ASSERT_EQ(a.codes, b.codes) << context << " column " << c;
  }
}

// Parses `text` with both engines under `options` and demands the same
// outcome: identical relations or identical error messages. The buffered
// parse is repeated at 1, 2 and 4 threads for every chunk size in
// `chunk_sizes` (empty = every size in [1, text.size()]), and at 1/2/8
// threads with automatic chunking.
void ExpectParityAtAllChunkings(const std::string& text, CsvOptions options,
                                std::vector<size_t> chunk_sizes = {}) {
  const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);

  if (chunk_sizes.empty()) {
    for (size_t bytes = 1; bytes <= text.size(); ++bytes) {
      chunk_sizes.push_back(bytes);
    }
  }
  std::vector<std::pair<int, size_t>> configs;  // (threads, chunk_bytes)
  for (const size_t bytes : chunk_sizes) {
    for (int threads : {1, 2, 4}) configs.emplace_back(threads, bytes);
  }
  for (int threads : {1, 2, 8}) configs.emplace_back(threads, 0);
  for (const auto& [threads, bytes] : configs) {
    options.num_threads = threads;
    options.chunk_bytes = bytes;
    const Result<Relation> got = CsvReader::ReadString(text, options);
    const std::string context = "threads=" + std::to_string(threads) +
                                " chunk_bytes=" + std::to_string(bytes);
    ASSERT_EQ(got.ok(), want.ok())
        << context << " got: "
        << (got.ok() ? "ok" : got.status().ToString()) << " want: "
        << (want.ok() ? "ok" : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << context;
    } else {
      ExpectIdentical(got.value(), want.value(), context);
    }
  }
}

// Chunks the buffered engine splits `text` into at `chunk_bytes`.
int64_t ChunkCount(const std::string& text, const CsvOptions& options,
                   size_t chunk_bytes) {
  Counter* chunks = MetricsRegistry::Global().GetCounter("ingest.chunks");
  const int64_t before = chunks->Value();
  CsvOptions buffered = options;
  buffered.chunk_bytes = chunk_bytes;
  EXPECT_TRUE(CsvReader::ReadString(text, buffered).ok());
  return chunks->Value() - before;
}

TEST(IngestChunkBoundaryTest, QuotedNewlinesSpanningEverySplit) {
  ExpectParityAtAllChunkings(
      "A,B\n\"line one\nline two\",x\n\"a\r\nb\",\"c,d\"\nplain,\"\"\n", {});
}

TEST(IngestChunkBoundaryTest, DoubledQuotesAndMixedQuoting) {
  ExpectParityAtAllChunkings(
      "A,B\n\"he said \"\"hi\"\"\",y\n\"ab\"cd,\"\"\"\"\n\"\"x,tail\n", {});
}

TEST(IngestChunkBoundaryTest, BlankLinesAtChunkEdges) {
  ExpectParityAtAllChunkings("A,B\n\n1,2\n\n\n3,4\n\n", {});
}

TEST(IngestChunkBoundaryTest, CrLfBreaksAndTrailingRecordWithoutNewline) {
  ExpectParityAtAllChunkings("A,B\r\n1,2\r\n3,4\r\n5,6", {});
}

TEST(IngestChunkBoundaryTest, SeparatorsAtChunkEdges) {
  ExpectParityAtAllChunkings("A,B,C\n,,\na,,c\n,b,\n", {});
}

TEST(IngestChunkBoundaryTest, QuoteReopensAfterEmptyQuotedPrefix) {
  // "" leaves the field empty, so a following quote re-opens quoting; a
  // quote after content is literal. The engines must agree byte for byte.
  ExpectParityAtAllChunkings("A\n\"\"\"x\"\nab\"c\n\"\"\n", {});
}

TEST(IngestChunkBoundaryTest, NoHeaderFirstRecordDefinesSchema) {
  CsvOptions options;
  options.has_header = false;
  ExpectParityAtAllChunkings("1,2\n3,4\n\"5\n6\",7\n", options);
}

TEST(IngestChunkBoundaryTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  ExpectParityAtAllChunkings("A;B\n\"x;y\";2\n,;3\n", options);
}

TEST(IngestErrorParityTest, EmptyInputVariants) {
  ExpectParityAtAllChunkings("", {});
  ExpectParityAtAllChunkings("\n\n", {});
  CsvOptions no_header;
  no_header.has_header = false;
  ExpectParityAtAllChunkings("", no_header);
}

TEST(IngestErrorParityTest, UnterminatedQuoteInHeaderAndData) {
  ExpectParityAtAllChunkings("\"A,B\n1,2\n", {});
  ExpectParityAtAllChunkings("A,B\n1,\"2\n", {});
  ExpectParityAtAllChunkings("A,B\n1,2\n3,\"4", {});
}

TEST(IngestErrorParityTest, ArityMismatchReportsGlobalDataRow) {
  ExpectParityAtAllChunkings("A,B\n1,2\n3\n5,6\n", {});
  ExpectParityAtAllChunkings("A,B\n1,2,3\n", {});
  CsvOptions no_header;
  no_header.has_header = false;
  ExpectParityAtAllChunkings("1,2\n3,4,5\n", no_header);
}

TEST(IngestErrorParityTest, ErrorsBeyondMaxRowsCutAreIgnored) {
  // The reference reader stops scanning at the cut, so a bad record past it
  // is never seen; the parallel engine must reproduce that.
  CsvOptions options;
  options.max_rows = 2;
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5\n", options);
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5,\"6\n", options);
  // At the boundary the reference reader does read (and reject) the record.
  options.max_rows = 1;
  ExpectParityAtAllChunkings("A,B\n1,2\n3\n", options);
  options.max_rows = 0;
  ExpectParityAtAllChunkings("A,B\n1,2\n", options);
}

TEST(IngestErrorParityTest, OverWideSchemaIsRefusedAtTheSchemaRecord) {
  // One field more than a ColumnSet addresses. The schema record alone
  // decides: no data record is read, so neither a following row, a
  // malformed one, nor a row cap changes the error.
  std::string record;
  for (int c = 0; c <= ColumnSet::kMaxColumns; ++c) {
    if (c > 0) record += ',';
    record += "c" + std::to_string(c);
  }
  CsvOptions header;
  CsvOptions no_header;
  no_header.has_header = false;
  CsvOptions header_capped;
  header_capped.max_rows = 0;
  CsvOptions no_header_capped = no_header;
  no_header_capped.max_rows = 0;
  const std::vector<std::pair<std::string, CsvOptions>> cases = {
      {record + "\n", header},
      {record, header},
      {record + "\n" + record + "\n", header},
      {record + "\n1,\"2\n", header},
      {record + "\n", no_header},
      {record + "\n" + record + "\n", no_header},
      {record + "\n" + record + "\n", header_capped},
      {record + "\n", no_header_capped},
  };
  for (const auto& [text, options] : cases) {
    SCOPED_TRACE("has_header=" + std::to_string(options.has_header) +
                 " max_rows=" + std::to_string(options.max_rows) +
                 " bytes=" + std::to_string(text.size()));
    const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(want.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(want.status().message(), "too many columns: 257 > 256");
    ExpectParityAtAllChunkings(text, options, {text.size(), 64, 7});
  }
}

TEST(IngestErrorParityTest, NegativeThreadCountIsInvalidArgument) {
  const std::string text = "A,B\n1,2\n3,4\n";
  CsvOptions options;
  options.num_threads = -2;
  const Result<Relation> parsed = CsvReader::ReadString(text, options);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.status().message(), "num_threads must be >= 0, got -2");

  const std::string path = ::testing::TempDir() + "/ingest_threads_test.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  const Result<Relation> read = CsvReader::ReadFile(path, options);
  std::remove(path.c_str());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(IngestMaxRowsTest, PrefixCutsAcrossChunks) {
  CsvOptions options;
  for (int64_t cut : {0, 1, 2, 3, 4, 9}) {
    options.max_rows = cut;
    ExpectParityAtAllChunkings("A,B\n1,a\n2,b\n3,c\n4,d\n", options);
  }
}

// A chunk parses rows past a max_rows cut; the relation must keep no
// capacity for them.
TEST(IngestMaxRowsTest, CutColumnKeepsNoCapacityForCutRows) {
  std::string text = "A,B\n";
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(i % 7) + "," + std::to_string(i) + "\n";
  }
  CsvOptions options;
  options.max_rows = 100;
  for (const int threads : {1, 4}) {
    options.num_threads = threads;
    options.chunk_bytes = threads == 1 ? 0 : 4096;
    const Result<Relation> got = CsvReader::ReadString(text, options);
    ASSERT_TRUE(got.ok());
    for (int c = 0; c < 2; ++c) {
      const CodeVector& codes = got.value().GetColumn(c).codes;
      EXPECT_EQ(codes.size(), 100u);
      EXPECT_LE(codes.capacity(), 200u) << "threads=" << threads;
    }
  }
  CsvOptions one_thread;
  one_thread.num_threads = 1;
  EXPECT_EQ(ChunkCount(text, one_thread, 0), 1);
  EXPECT_GT(ChunkCount(text, one_thread, 4096), 1);
}

TEST(IngestNullSemanticsTest, NullUnequalNumbersCellsInRowMajorOrder) {
  CsvOptions options;
  options.nulls = NullSemantics::kNullUnequal;
  // Empty null token: empty cells become unique values, numbered row-major
  // over kept rows — the numbering must not depend on the chunking.
  ExpectParityAtAllChunkings("A,B,C\n,x,\ny,,z\n,,\n", options);
  options.null_token = "NA";
  ExpectParityAtAllChunkings("A,B\nNA,1\n2,NA\nNA,NA\n", options);
  options.max_rows = 2;
  ExpectParityAtAllChunkings("A,B\nNA,1\n2,NA\nNA,NA\n", options);
}

// Data without a quote byte is split one past the first '\n' at or after
// each byte target, with no pre-scan; any quote byte in the data falls
// back to the quote-aware split.
TEST(IngestQuoteFreeSplitTest, CarriageReturnOnlyBreaksAreOneChunk) {
  const std::string text = "A,B\r1,2\r3,4\r\r5,6\r";
  ExpectParityAtAllChunkings(text, {});
  EXPECT_EQ(ChunkCount(text, {}, 1), 1);
}

TEST(IngestQuoteFreeSplitTest, CrLfStraddlingTargets) {
  const std::string text = "A,B\r\n1,2\r\n3,4\r\n\r\n5,6\r\n7,8";
  ExpectParityAtAllChunkings(text, {});
  // The data's first chunk, then one past each of its four line feeds.
  EXPECT_EQ(ChunkCount(text, {}, 1), 5);
}

TEST(IngestQuoteFreeSplitTest, BlankLinesAtTargets) {
  ExpectParityAtAllChunkings("A,B\n1,2\n\n\n3,4\n\n5,6\n\n", {});
  ExpectParityAtAllChunkings("\n\nA,B\n\n1,\n\n,2\n", {});
}

TEST(IngestQuoteFreeSplitTest, QuoteOnlyInHeader) {
  const std::string text = "\"A\",\"B,\nC\"\n1,2\n3,4\n5,6\n";
  ExpectParityAtAllChunkings(text, {});
  EXPECT_EQ(ChunkCount(text, {}, 1), 3);
}

TEST(IngestQuoteFreeSplitTest, QuotedFieldOnlyInLastRecordForcesGeneralSplit) {
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5,\"x\ny,\"\"z\"\n", {});
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5,\"x\n6", {});
}

TEST(IngestQuoteFreeSplitTest, CustomQuoteLeavesDoubleQuotesLiteral) {
  CsvOptions options;
  options.quote = '\'';
  ExpectParityAtAllChunkings("A,B\n\"x,1\n2,y\"\"\n\"\",\"\n\"\n", options);
  ExpectParityAtAllChunkings("'A,B',C\n\"1,\"\n\"\"\",2\n", options);
  ExpectParityAtAllChunkings("A,B\n\"1,2\n'3\n4',\"\n", options);
}

TEST(IngestQuoteFreeSplitTest, LineFeedSeparatorKeepsGeneralSplit) {
  // With '\n' as the separator only '\r' ends a record, so a line feed is
  // no record boundary and quote-free data must not be split at one.
  CsvOptions options;
  options.separator = '\n';
  ExpectParityAtAllChunkings("A\nB\r1\n2\r3\n4\r\n5\r", options);
}

// Each record is interned as it is parsed, so max_rows cuts, NULL != NULL
// ids and the near-unique bail-out are all settled in the parse pass.
TEST(IngestSinglePassTest, MaxRowsCutDropsValuesOnlyCutRowsHold) {
  const std::string text = "A,B\n1,a\n2,b\n1,a\n9,z\n8,y\n2,x\n";
  CsvOptions options;
  for (int64_t cut : {0, 1, 2, 3, 4, 5}) {
    options.max_rows = cut;
    ExpectParityAtAllChunkings(text, options);
  }
  options.max_rows = 3;
  const Result<Relation> got = CsvReader::ReadString(text, options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().GetColumn(0).dictionary,
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(got.value().GetColumn(1).dictionary,
            (std::vector<std::string>{"a", "b"}));
}

TEST(IngestSinglePassTest, NullUnequalAcrossChunks) {
  CsvOptions options;
  options.nulls = NullSemantics::kNullUnequal;
  const std::string text = "A,B\n,x\ny,\n,\nz,w\n,x\n";
  ExpectParityAtAllChunkings(text, options);
  options.max_rows = 3;
  ExpectParityAtAllChunkings(text, options);
  // A cell whose text equals a rewritten NULL shares its dictionary entry.
  options.max_rows = -1;
  ExpectParityAtAllChunkings("A,B\n,1\n\x01null#0,2\n\x01null#3,\n", options);
}

TEST(IngestSinglePassTest, NearUniqueBailOutMidChunk) {
  // Column `key` holds 5000 distinct values, then repeats them: a chunk
  // that sees its first 4096 keys stops deduplicating mid-chunk. Column
  // `group` never bails out. Chunk sizes put the bail-out in the middle of
  // the single chunk, of some chunks, and of none.
  std::string text = "key,group\n";
  for (int i = 0; i < 7000; ++i) {
    text += 'k';
    text += std::to_string(i % 5000);
    text += ",g";
    text += std::to_string(i % 7);
    text += '\n';
  }
  CsvOptions options;
  ExpectParityAtAllChunkings(text, options,
                             {text.size(), text.size() / 2, text.size() / 3,
                              40000, 4096, 1000});
  options.nulls = NullSemantics::kNullUnequal;
  options.null_token = "g3";
  options.max_rows = 6000;
  ExpectParityAtAllChunkings(text, options, {text.size(), 40000, 4096});
}

bool Holds(const Column& column, const std::string& value) {
  return std::find(column.dictionary.begin(), column.dictionary.end(),
                   value) != column.dictionary.end();
}

// Parity at every chunking (ExpectParityAtAllChunkings), after checking
// that the reference relation holds none of `absent` in any dictionary:
// the engine, equal to it, then holds none either.
void ExpectParityWithout(const std::string& text, const CsvOptions& options,
                         const std::vector<std::string>& absent) {
  const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (int c = 0; c < want.value().NumColumns(); ++c) {
    for (const std::string& value : absent) {
      EXPECT_FALSE(Holds(want.value().GetColumn(c), value)) << "column " << c;
    }
  }
  ExpectParityAtAllChunkings(text, options);
}

// A record that does not complete is never encoded: the cells interned
// before it failed are taken back out, so a max_rows cut exactly at it
// (which keeps every earlier row and drops no value) leaves no trace of it.
TEST(IngestRollbackTest, ShortRecordOfNewValuesAtTheCut) {
  CsvOptions options;
  const std::string text = "A,B,C\n1,x,p\n2,y,q\nN1,N2\n";
  ExpectParityAtAllChunkings(text, options);  // Arity error.
  options.max_rows = 2;
  ExpectParityWithout(text, options, {"N1", "N2"});
  // NULL != NULL: the failed record's NULL cell has taken a fresh id too.
  options.nulls = NullSemantics::kNullUnequal;
  const std::string nulls = "A,B,C\n1,,p\n,y,q\nN1,\n";
  ExpectParityWithout(nulls, options, {"N1", "", "\x01null#2"});
  options.max_rows = -1;
  ExpectParityAtAllChunkings(nulls, options);
}

TEST(IngestRollbackTest, OverWideRecordOfNewValuesAtTheCut) {
  CsvOptions options;
  const std::string text = "A,B\n1,x\n2,y\nN1,N2,N3\n";
  ExpectParityAtAllChunkings(text, options);  // Arity error.
  options.max_rows = 2;
  ExpectParityWithout(text, options, {"N1", "N2", "N3"});
}

TEST(IngestRollbackTest, UnterminatedQuoteAfterNewValues) {
  CsvOptions options;
  const std::string text = "A,B,C\n1,x,p\n2,y,q\nN1,N2,\"open\nN3,N4,N5\n";
  ExpectParityAtAllChunkings(text, options);  // Unterminated quote.
  options.max_rows = 2;  // The reference still reaches the third record.
  ExpectParityAtAllChunkings(text, options);
  // A cut before it: the failed record may sit in a chunk of its own,
  // whose kept row count (0) equals its complete record count.
  options.max_rows = 1;
  ExpectParityWithout(text, options, {"N1", "N2", "N3", "2", "y"});
}

// Values of at most 8 bytes are interned by their exact word and length,
// longer ones by their bytes: neighbors across that line must stay apart.
TEST(IngestShortKeyTest, SevenEightAndNineByteValuesSharingAPrefix) {
  const std::string text =
      "A,B\nabcdefg,abcdefgh\nabcdefgh,abcdefghi\nabcdefghi,abcdefg\n"
      "abcdefg,abcdefgh\nabcdefgX,abcdefghX\nabcdefgh,abcdefgh\n";
  ExpectParityAtAllChunkings(text, {});
  const Result<Relation> got = CsvReader::ReadString(text, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().GetColumn(0).dictionary,
            (std::vector<std::string>{"abcdefg", "abcdefgX", "abcdefgh",
                                      "abcdefghi"}));
  EXPECT_EQ(got.value().GetColumn(1).codes,
            (CodeVector{1, 3, 0, 1, 2, 1}));
}

TEST(IngestShortKeyTest, ValuesDifferingOnlyInTrailingNulBytes) {
  // "a", "a\0", "a" + 7 NULs (8 bytes, one word) and "a" + 8 NULs: the
  // same zero-extended word, four lengths, four values.
  const std::string a1 = "a";
  const std::string a2("a\0", 2);
  const std::string a8 = "a" + std::string(7, '\0');
  const std::string a9 = "a" + std::string(8, '\0');
  const std::string nul(1, '\0');
  const std::string text = "A,B\n" + a1 + "," + a8 + "\n" + a2 + "," + a9 +
                           "\n" + a8 + "," + a1 + "\n" + a9 + "," + a2 +
                           "\n" + a1 + ",\n" + nul + "," + nul + "\n";
  ExpectParityAtAllChunkings(text, {});
  const Result<Relation> got = CsvReader::ReadString(text, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().GetColumn(0).dictionary,
            (std::vector<std::string>{nul, a1, a2, a8, a9}));
  EXPECT_EQ(got.value().GetColumn(1).dictionary,
            (std::vector<std::string>{"", nul, a1, a2, a8, a9}));
}

TEST(IngestShortKeyTest, EmptyFieldNextToEmptyNullToken) {
  // The empty value (word 0, length 0) next to "\0" (word 0, length 1),
  // with the empty string as the NULL token under both semantics.
  const std::string nul(1, '\0');
  const std::string text = "A,B,C\n," + nul + ",\n" + nul + ",," + nul +
                           "\n,,\n" + nul + "," + nul + "," + nul + "\n";
  CsvOptions options;
  options.null_token = "";
  ExpectParityAtAllChunkings(text, options);
  options.nulls = NullSemantics::kNullUnequal;
  ExpectParityAtAllChunkings(text, options);
}

TEST(IngestShortKeyTest, NearUniqueSwitchMidChunkThenShortRecordAtTheCut) {
  // Column `key` holds 7-, 8- and 9-byte values (5000 distinct, then
  // repeats), so the 4,096-distinct switch falls inside a chunk; a short
  // record of new values follows the last row and the cut lands on it.
  std::string text = "key,group\n";
  for (int i = 0; i < 6000; ++i) {
    const std::string digits = std::to_string(100000 + i % 5000);
    text += std::string(1 + i % 3, 'k') + digits + ",g" +
            std::to_string(i % 5) + "\n";
  }
  text += "newkey\n";
  CsvOptions options;
  options.max_rows = 6000;
  for (const size_t bytes : {text.size(), text.size() / 2, size_t{40000}}) {
    for (const int threads : {1, 4}) {
      options.num_threads = threads;
      options.chunk_bytes = bytes;
      const Result<Relation> got = CsvReader::ReadString(text, options);
      const Result<Relation> want =
          ReferenceCsvReader::ReadString(text, options);
      ASSERT_TRUE(got.ok() && want.ok());
      ExpectIdentical(got.value(), want.value(),
                      "bytes=" + std::to_string(bytes));
      EXPECT_FALSE(Holds(got.value().GetColumn(0), "newkey"));
    }
  }
  options.max_rows = -1;
  ExpectParityAtAllChunkings(text, options, {text.size(), 40000});
}

// Parses `text` from a heap copy of exactly its size, so a read past its
// last byte is out of bounds (and an ASan failure), at threads 1 and 4 and
// chunk_bytes 0, 1, 7 and 64, and demands the reference's relation.
// Returns the reference's relation (nullopt if it refused the text).
std::optional<Relation> ExpectParityFromExactBuffer(const std::string& text,
                                                    CsvOptions options = {}) {
  const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (!want.ok()) return std::nullopt;
  const auto exact = std::make_unique<char[]>(text.size());
  std::copy(text.begin(), text.end(), exact.get());
  const std::string_view view(exact.get(), text.size());
  for (const int threads : {1, 4}) {
    for (const size_t bytes : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
      options.num_threads = threads;
      options.chunk_bytes = bytes;
      const Result<Relation> got = CsvReader::ReadString(view, options);
      const std::string context = "threads=" + std::to_string(threads) +
                                  " chunk_bytes=" + std::to_string(bytes);
      EXPECT_TRUE(got.ok()) << context << " " << got.status().ToString();
      if (got.ok()) ExpectIdentical(got.value(), want.value(), context);
    }
  }
  return want.value();
}

// A value of at most 8 bytes is interned by its zero-padded first word and
// its length; the word is one 8-byte load while 8 bytes of the input
// buffer are readable from the value's start, and bounded loads otherwise.
TEST(IngestInternTableTest, EveryLengthFromZeroToSeventeen) {
  const std::string bytes = "abcdefghijklmnopq";
  std::string text = "A,B,C\n";
  for (int i = 0; i < 3 * 18; ++i) {
    std::string b = bytes.substr(0, static_cast<size_t>(i * 7 % 18));
    if (i % 2 == 1 && !b.empty()) b.back() = 'Z';  // Same length, last byte.
    text += bytes.substr(0, static_cast<size_t>(i % 18)) + "," + b + "," +
            std::string(static_cast<size_t>(17 - i % 18), 'x') + "\n";
  }
  const std::optional<Relation> got = ExpectParityFromExactBuffer(text);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->GetColumn(0).dictionary.size(), 18u);
  EXPECT_EQ(got->GetColumn(2).dictionary.size(), 18u);
}

TEST(IngestInternTableTest, ValuesSharingTheirFirstEightBytes) {
  // Each pair below has one length and one first word; they differ only
  // past byte 8, so only the long-value byte compare tells them apart.
  const std::string text =
      "A,B\n"
      "abcdefgh,abcdefghX\n"
      "abcdefghX,abcdefghY\n"
      "abcdefghY,abcdefghXY\n"
      "abcdefghXY,abcdefghYX\n"
      "abcdefghYX,abcdefgh12345678A\n"
      "abcdefgh12345678A,abcdefgh12345678B\n"
      "abcdefgh12345678B,abcdefgh\n"
      "abcdefghX,abcdefgh12345678A\n";
  const std::optional<Relation> got = ExpectParityFromExactBuffer(text);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->GetColumn(0).dictionary.size(), 7u);
  EXPECT_EQ(got->GetColumn(1).dictionary.size(), 7u);
}

TEST(IngestInternTableTest, ValuesDifferingOnlyInTrailingNulBytes) {
  // Zero padding gives "", "\0", "a", "a\0", ... "a" + 7 NULs the same
  // word as their shorter neighbors; only the length separates them.
  std::string text = "A,B\n";
  for (int n = 0; n <= 9; ++n) {
    text += "a" + std::string(static_cast<size_t>(n), '\0') + "," +
            std::string(static_cast<size_t>(n), '\0') + "\n";
  }
  text += "a,\na" + std::string(8, '\0') + "," + std::string(8, '\0') + "\n";
  const std::optional<Relation> got = ExpectParityFromExactBuffer(text);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->GetColumn(0).dictionary.size(), 10u);
  EXPECT_EQ(got->GetColumn(1).dictionary.size(), 10u);
}

TEST(IngestInternTableTest, ShortLastFieldEndsAtTheLastByte) {
  // No newline at the end: the last field's 8-byte window runs past the
  // buffer, so its word must come from the bounded loads.
  for (size_t n = 0; n <= 9; ++n) {
    const std::string last = std::string("abcdefghi").substr(0, n);
    ExpectParityFromExactBuffer("A,B\n1,abcdefghi\n2," + last);
    ExpectParityFromExactBuffer("A\n" + last + "\n" + last + "\n" + last);
  }
  ExpectParityFromExactBuffer("A,B\nx,y\r\nx,y");
}

TEST(IngestInternTableTest, QuotedAndArenaValuesMatchTheirPlainTwins) {
  // "abcd"efgh is an arena copy of abcdefgh, "abc" a view of the buffer
  // past its quote, and "a""b" an unescaped arena value; each must take
  // the id of the same bytes met as a plain field.
  const std::string text =
      "A,B\n"
      "abcdefgh,abc\n"
      "\"abcd\"efgh,\"abc\"\n"
      "abcdefghi,\"a\"\"b\"\n"
      "\"abcd\"efghi,a\"b\n"
      "\"\"\"\",\"abcdefgh\"\"\"\n"
      "\"abcdefgh\",\"\"\n";
  const std::optional<Relation> got = ExpectParityFromExactBuffer(text);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->GetColumn(0).dictionary,
            (std::vector<std::string>{"\"", "abcdefgh", "abcdefghi"}));
  EXPECT_EQ(got->GetColumn(1).dictionary,
            (std::vector<std::string>{"", "a\"b", "abc", "abcdefgh\""}));
}

// ingest.parse_ns sums each chunk's parse time into the run exactly once:
// a run reads what the process counter gained over it, and at one thread
// (chunks parse one after another) no more than the call's wall time.
TEST(IngestMetricsTest, ParseNanosecondsAreCreditedOncePerRun) {
  std::string text = "A,B,C\n";
  for (int i = 0; i < 20000; ++i) {
    text += "v" + std::to_string(i % 7) + ",w" + std::to_string(i % 5) +
            "," + std::to_string(i % 3) + "\n";
  }
  Counter* parse_ns = MetricsRegistry::Global().GetCounter("ingest.parse_ns");
  for (const int threads : {1, 4}) {
    CsvOptions options;
    options.num_threads = threads;
    options.chunk_bytes = threads == 1 ? 0 : 8192;
    const int64_t before = parse_ns->Value();
    MetricsScope scope;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(CsvReader::ReadString(text, options).ok());
    const int64_t wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    const int64_t run = metrics::ValueOf(scope.run()->Snapshot(),
                                         "ingest.parse_ns");
    EXPECT_GT(run, 0) << "threads=" << threads;
    EXPECT_EQ(run, parse_ns->Value() - before) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_LE(run, wall_ns);
    }
  }
}

TEST(IngestDeterminismTest, BitIdenticalAcrossThreadCounts) {
  // A larger input with repeated and unique values per column, parsed at
  // automatic chunking for several thread counts: the relation must be
  // bit-identical to the sequential reference every time.
  std::string text = "id,word,group\n";
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    text += std::to_string(i) + ",w" + std::to_string(rng.NextBelow(97)) +
            ",g" + std::to_string(rng.NextBelow(7)) + "\n";
  }
  CsvOptions options;
  const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);
  ASSERT_TRUE(want.ok());

  options.chunk_bytes = 512;  // Force many chunks even on this small input.
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    const Result<Relation> got = CsvReader::ReadString(text, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "threads=" + std::to_string(threads));
  }
}

TEST(IngestDirectApiTest, IngestCsvMatchesReaderDispatch) {
  const std::string text = "A,B\n1,2\n\"x\ny\",3\n";
  CsvOptions options;
  options.num_threads = 2;
  options.chunk_bytes = 4;
  const Result<Relation> direct = IngestCsv(text, options, "rel");
  const Result<Relation> reference =
      ReferenceCsvReader::ReadString(text, options, "rel");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(direct.value(), reference.value(), "direct");
  EXPECT_EQ(direct.value().name(), "rel");
}

TEST(IngestReadFileTest, BufferedFileReadMatchesStream) {
  const std::string path =
      ::testing::TempDir() + "/ingest_readfile_test.csv";
  const std::string text =
      "A,B\n\"multi\nline\",1\n2,\"q\"\"uote\"\n\nlast,row";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  CsvOptions options;
  const Result<Relation> want = ReferenceCsvReader::ReadFile(path, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    options.chunk_bytes = 8;
    const Result<Relation> got = CsvReader::ReadFile(path, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "file threads=" + std::to_string(threads));
  }
  std::remove(path.c_str());
}

TEST(IngestReadFileTest, MissingFileIsIoError) {
  const Result<Relation> got =
      CsvReader::ReadFile("/nonexistent/ingest_test.csv");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

// Property test: random documents with hostile cell content, random
// chunkings, random thread counts — always equal to the reference.
std::string RandomCell(Rng* rng) {
  static const char kAlphabet[] = "ab,\"\n\r;x ";
  std::string cell;
  const int length = static_cast<int>(rng->NextBelow(8));
  for (int i = 0; i < length; ++i) {
    cell += kAlphabet[rng->NextBelow(sizeof(kAlphabet) - 1)];
  }
  return cell;
}

class IngestPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IngestPropertyTest, RandomDocumentsParseIdentically) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  const int cols = 1 + static_cast<int>(rng.NextBelow(4));
  const int rows = static_cast<int>(rng.NextBelow(30));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("h" + std::to_string(c));
  std::vector<std::vector<std::string>> data;
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng));
    data.push_back(std::move(row));
  }
  const std::string text =
      CsvWriter::ToString(Relation::FromRows(names, data));

  CsvOptions options;
  const Result<Relation> want = ReferenceCsvReader::ReadString(text, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (int trial = 0; trial < 8; ++trial) {
    options.num_threads = 1 + static_cast<int>(rng.NextBelow(8));
    options.chunk_bytes = 1 + rng.NextBelow(text.size() + 1);
    const Result<Relation> got = CsvReader::ReadString(text, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "threads=" + std::to_string(options.num_threads) +
                        " chunk_bytes=" +
                        std::to_string(options.chunk_bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestPropertyTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace muds
