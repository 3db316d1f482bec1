// Differential fuzzer for the CSV ingest engines.
//
// The input's first three bytes select a CsvOptions point (separator,
// header, NULL semantics, quote character, thread count, chunk size, row
// cap); the rest is the CSV document. With `'` as the quote, a document
// full of `"` bytes takes the buffered engine's quote-free split and its
// `"` bytes are literals. The parallel zero-copy buffered engine must agree
// with the sequential reference reader (testing/reference_csv.h) on every
// byte sequence: same ok/error verdict, same error text, and a
// bit-identical relation (dictionaries and codes). Successful parses
// additionally round-trip through CsvWriter, and go through duplicate-row
// removal, which must keep exactly the naive first occurrences at 1 and 4
// threads. Dedup takes its bitmap pass when the product of the column
// cardinalities is at most the row count and hashes otherwise; the corpus
// holds documents on both sides of that bound.

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "data/relation.h"
#include "testing/reference_csv.h"
#include "fuzz_util.h"

namespace {

using namespace muds;

bool SameRelation(const Relation& a, const Relation& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  if (a.ColumnNames() != b.ColumnNames()) return false;
  for (int c = 0; c < a.NumColumns(); ++c) {
    if (a.GetColumn(c).dictionary != b.GetColumn(c).dictionary) return false;
    if (a.GetColumn(c).codes != b.GetColumn(c).codes) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 3) return 0;
  CsvOptions options;
  options.separator = (data[0] & 1) ? ';' : ',';
  options.has_header = (data[0] & 2) != 0;
  options.nulls = (data[0] & 4) ? NullSemantics::kNullUnequal
                                : NullSemantics::kNullEqual;
  if (data[0] & 8) options.null_token = "NA";
  if (data[0] & 16) options.max_rows = data[1] % 16;
  if (data[0] & 32) options.quote = '\'';
  const int num_threads = 1 + (data[1] >> 4) % 3;
  // Low bytes give tiny chunks, which force record boundaries everywhere;
  // 0xF0-0xFE give 256 B to 4 MiB, enough for one chunk to cross the
  // 4,096-distinct near-unique switch; 0xFF gives 0, the automatic size.
  const size_t chunk_bytes = data[2] < 0xF0   ? size_t{1} + data[2]
                             : data[2] < 0xFF ? size_t{1} << (data[2] - 0xE8)
                                              : 0;

  const std::string_view text(reinterpret_cast<const char*>(data + 3),
                              size - 3);

  // The reference reader is the oracle; it ignores threads/chunking.
  Result<Relation> reference = ReferenceCsvReader::ReadString(text, options);

  CsvOptions buffered_options = options;
  buffered_options.num_threads = num_threads;
  buffered_options.chunk_bytes = chunk_bytes;
  Result<Relation> buffered = CsvReader::ReadString(text, buffered_options);

  FUZZ_ASSERT(reference.ok() == buffered.ok());
  if (!reference.ok()) {
    FUZZ_ASSERT(reference.status().code() == buffered.status().code());
    FUZZ_ASSERT(reference.status().message() == buffered.status().message());
    return 0;
  }
  FUZZ_ASSERT(SameRelation(reference.value(), buffered.value()));

  // Dedup: the naive first occurrences at 1 and 4 threads, the same
  // relation at both, and nothing left to remove on a second pass.
  static ThreadPool four_threads(4);
  const Relation& relation = reference.value();
  std::set<std::vector<std::string>> distinct;
  std::vector<RowId> first_occurrences;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    if (distinct.insert(relation.Row(row)).second) {
      first_occurrences.push_back(row);
    }
  }
  FUZZ_ASSERT(DistinctRowIds(relation) == first_occurrences);
  FUZZ_ASSERT(DistinctRowIds(relation, &four_threads) == first_occurrences);
  const DeduplicateResult serial = DeduplicateRows(relation);
  const DeduplicateResult parallel = DeduplicateRows(relation, &four_threads);
  FUZZ_ASSERT(serial.duplicates_removed ==
              static_cast<int64_t>(relation.NumRows()) -
                  static_cast<int64_t>(first_occurrences.size()));
  FUZZ_ASSERT(SameRelation(serial.relation, parallel.relation));
  FUZZ_ASSERT(DeduplicateRows(serial.relation).duplicates_removed == 0);

  // Round trip: writing the parsed relation and re-reading it must
  // reproduce it exactly (the writer quotes everything that needs it). A
  // zero-column relation has no CSV surface to round-trip through.
  if (reference.value().NumColumns() == 0) return 0;
  CsvOptions writer_options;
  writer_options.separator = options.separator;
  writer_options.quote = options.quote;
  const std::string rewritten =
      CsvWriter::ToString(reference.value(), writer_options);
  Result<Relation> reparsed =
      ReferenceCsvReader::ReadString(rewritten, writer_options);
  FUZZ_ASSERT(reparsed.ok());
  FUZZ_ASSERT(SameRelation(reference.value(), reparsed.value()));
  return 0;
}
