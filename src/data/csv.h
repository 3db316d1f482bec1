#ifndef MUDS_DATA_CSV_H_
#define MUDS_DATA_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/relation.h"

namespace muds {

class ThreadPool;

/// How cells equal to `null_token` compare during profiling. The choice
/// changes which dependencies hold — a classic data-profiling semantics
/// switch (Metanome exposes the same two modes).
enum class NullSemantics {
  /// NULL = NULL: all null cells carry one shared value (the default; what
  /// plain string comparison does anyway).
  kNullEqual,
  /// NULL ≠ NULL: every null cell is distinct from every other cell, so
  /// nulls never witness a duplicate (UCCs get easier) and never violate
  /// an FD by agreeing on the left-hand side.
  kNullUnequal,
};

/// CSV parsing options.
struct CsvOptions {
  char separator = ',';
  char quote = '"';
  /// If true, the first record names the columns; otherwise columns are
  /// named "col0", "col1", ....
  bool has_header = true;
  /// Stop after this many data rows (<0 = read everything). Lets benches
  /// load row prefixes the way the paper's row-scalability experiment does.
  int64_t max_rows = -1;
  /// Cells equal to this token are treated as NULL under `nulls`. The
  /// empty default means empty cells are the nulls.
  std::string null_token;
  NullSemantics nulls = NullSemantics::kNullEqual;
  /// Worker threads for a direct CsvReader call that passes no pool
  /// (0 = hardware concurrency, 1 = inline on the caller; negative is an
  /// InvalidArgument error). The Profile* entry points ignore it: their
  /// parse runs on the run's pool (ProfileOptions::num_threads). The parsed
  /// relation is bit-identical — same dictionaries, same codes — at every
  /// thread count.
  int num_threads = 1;
  /// Target chunk size in bytes for the ingest engine (0 = automatic).
  /// Tests set tiny values to force chunk boundaries into quoted fields;
  /// the result does not depend on the chunking.
  size_t chunk_bytes = 0;
  /// Files at least this large are mmap'ed (with sequential read-ahead
  /// advice) instead of copied into an allocated buffer — the parse
  /// borrows string_views straight from the mapping, so the file's bytes
  /// are never duplicated in memory. Smaller inputs keep the
  /// single-allocation read; SIZE_MAX disables mapping. If mmap fails the
  /// reader silently falls back to the buffered read.
  size_t mmap_min_bytes = size_t{8} << 20;
};

/// Parses RFC-4180-style CSV: quoted fields may contain separators,
/// newlines, and doubled quotes. Fully-blank lines (outside quotes) are
/// skipped, wherever they appear. Every record must have the same arity as
/// the header; a mismatch is a ParseError naming the input and the 1-based
/// data-row number (the header is not counted). A first record with more
/// than ColumnSet::kMaxColumns fields is an InvalidArgument error, raised
/// before any data record is read.
class CsvReader {
 public:
  /// Parses an in-memory CSV document with the buffered ingest engine
  /// (parallel, zero-copy, encoding as it parses; see data/ingest.h), on
  /// `pool` if given, else on a pool of `options.num_threads`.
  static Result<Relation> ReadString(std::string_view text,
                                     const CsvOptions& options = {},
                                     std::string name = "relation",
                                     ThreadPool* pool = nullptr);

  /// Reads and parses a CSV file. The relation is named after the path.
  /// The file is read with a single allocation sized by the file length,
  /// or mapped (see `CsvOptions::mmap_min_bytes`). `pool` as in ReadString.
  static Result<Relation> ReadFile(const std::string& path,
                                   const CsvOptions& options = {},
                                   ThreadPool* pool = nullptr);
};

/// Writes a relation back out as CSV (quoting only where necessary).
class CsvWriter {
 public:
  /// Serializes `relation` with a header row.
  static std::string ToString(const Relation& relation,
                              const CsvOptions& options = {});

  /// Writes `relation` to `path`. Fails with IoError if the file cannot be
  /// created.
  static Status WriteFile(const Relation& relation, const std::string& path,
                          const CsvOptions& options = {});
};

}  // namespace muds

#endif  // MUDS_DATA_CSV_H_
