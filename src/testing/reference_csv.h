#ifndef MUDS_TESTING_REFERENCE_CSV_H_
#define MUDS_TESTING_REFERENCE_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/csv.h"
#include "data/relation.h"

namespace muds {

/// The reference CSV reader: the original single-threaded streaming parser,
/// a byte-at-a-time record scanner feeding a RelationBuilder. It shares no
/// code with the buffered ingest engine (data/ingest.h) behind CsvReader,
/// and is the oracle that engine must match bit for bit — same column
/// names, dictionaries, codes, and error statuses — in the ingest tests,
/// the CSV fuzzer, muds_diff's io axis, and bench_ingest's `stream` rows.
///
/// Honors the dialect fields of CsvOptions (separator, quote, has_header,
/// max_rows, null_token, nulls) and ignores the engine knobs (num_threads,
/// chunk_bytes, mmap_min_bytes).
class ReferenceCsvReader {
 public:
  static Result<Relation> ReadString(std::string_view text,
                                     const CsvOptions& options = {},
                                     std::string name = "relation");

  /// Reads the file through an ostringstream (the original read path, two
  /// buffers) and parses it with ReadString. The relation is named after
  /// the path.
  static Result<Relation> ReadFile(const std::string& path,
                                   const CsvOptions& options = {});
};

}  // namespace muds

#endif  // MUDS_TESTING_REFERENCE_CSV_H_
