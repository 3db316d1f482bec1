#ifndef MUDS_DATA_CSV_H_
#define MUDS_DATA_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/relation.h"

namespace muds {

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

/// Which ingest engine the reader runs (muds_profile --io=stream|buffered).
enum class CsvIoMode {
  /// Default: one allocation for the whole file, record-aligned chunking
  /// (no pre-scan on quote-free data), and a parallel zero-copy parse that
  /// dictionary-encodes each chunk in the same pass (ingest.h).
  kBuffered,
  /// Escape hatch: the original streaming read + byte-at-a-time scanner.
  /// Single-threaded; kept as the reference the buffered engine must match
  /// bit for bit, and as the seed baseline for bench_ingest.
  kStream,
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
  /// Ingest engine; kBuffered honors the two knobs below.
  CsvIoMode io = CsvIoMode::kBuffered;
  /// Worker threads for the buffered engine (0 = hardware concurrency,
  /// 1 = inline on the caller; negative is an InvalidArgument error). The
  /// parsed relation is bit-identical — same dictionaries, same codes — at
  /// every thread count.
  int num_threads = 1;
  /// Target chunk size in bytes for the buffered engine (0 = automatic).
  /// Tests set tiny values to force chunk boundaries into quoted fields;
  /// the result does not depend on the chunking.
  size_t chunk_bytes = 0;
  /// Files at least this large are mmap'ed (with sequential read-ahead
  /// advice) instead of copied into an allocated buffer in buffered mode —
  /// the parse borrows string_views straight from the mapping, so the
  /// file's bytes are never duplicated in memory. Smaller inputs keep the
  /// single-allocation read; SIZE_MAX disables mapping. If mmap fails the
  /// reader silently falls back to the buffered read.
  size_t mmap_min_bytes = size_t{8} << 20;
};

/// Parses RFC-4180-style CSV: quoted fields may contain separators,
/// newlines, and doubled quotes. Fully-blank lines (outside quotes) are
/// skipped, wherever they appear. Every record must have the same arity as
/// the header; a mismatch is a ParseError naming the input and the 1-based
/// data-row number (the header is not counted).
class CsvReader {
 public:
  /// Parses an in-memory CSV document. Dispatches on `options.io`: the
  /// buffered engine (parallel, zero-copy; see data/ingest.h) by default,
  /// the streaming reference scanner for CsvIoMode::kStream. Both produce
  /// bit-identical relations on every input.
  static Result<Relation> ReadString(std::string_view text,
                                     const CsvOptions& options = {},
                                     std::string name = "relation");

  /// Reads and parses a CSV file. The relation is named after the path.
  /// In buffered mode the file is read with a single allocation sized by
  /// the file length; stream mode keeps the seed path's buffered-stream
  /// read.
  static Result<Relation> ReadFile(const std::string& path,
                                   const CsvOptions& options = {});

  /// The single-threaded streaming parser (the seed implementation),
  /// independent of `options.io`/`num_threads`/`chunk_bytes` — the oracle
  /// that differential tests compare the parallel engine against.
  static Result<Relation> ReadStringStream(std::string_view text,
                                           const CsvOptions& options = {},
                                           std::string name = "relation");
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
