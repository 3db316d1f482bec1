#ifndef MUDS_DATA_INGEST_H_
#define MUDS_DATA_INGEST_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/csv.h"
#include "data/relation.h"

namespace muds {

/// Parallel, (near) zero-copy CSV ingest — the buffered engine behind
/// CsvReader (see DESIGN.md, "Ingest pipeline").
///
/// The text is split into record-aligned chunks: at line feeds when the
/// data holds no quote byte, by a quote-aware pre-scan otherwise. Each
/// chunk is parsed and dictionary-encoded concurrently in one pass: every
/// field, a string_view of the input buffer (fields that need unescaping or
/// NULL rewriting are the only copies, into a per-chunk arena), is interned
/// into a per-chunk, per-column table as soon as it is scanned. The chunk
/// dictionaries are merged into the global sorted dictionary with a
/// code-remap pass.
///
/// Determinism contract: the resulting Relation is bit-identical — same
/// dictionaries, same codes, same errors — to the single-threaded reference
/// reader (testing/reference_csv.h) for every thread count and every chunk
/// size. The global dictionary is the
/// sorted union of the chunk dictionaries and a code is the value's rank in
/// it, so the merge is independent of how the input was chunked; rows keep
/// file order as each column appends the chunks' codes in turn.
///
/// Runs on `pool` when one is given (a run owner's pool; `options.num_threads`
/// is then ignored), else on a pool of `options.num_threads` threads capped
/// at the hardware (0 = hardware concurrency; negative is an
/// InvalidArgument error). Either way automatic chunks are sized for
/// min(pool threads, hardware), so an input splits the same on both. Honors
/// `options.chunk_bytes` (0 = automatic sizing; tests set tiny values to
/// force record boundaries into quoted fields).
/// Counts `ingest.bytes`, `ingest.records`, `ingest.chunks` and
/// `ingest.parse_ns` (each chunk's parse time, summed) in the metrics
/// registry and emits `ingest.scan` / `ingest.parse` (parse and
/// encode) / `ingest.merge` trace spans.
Result<Relation> IngestCsv(std::string_view text, const CsvOptions& options,
                           std::string name = "relation",
                           ThreadPool* pool = nullptr);

}  // namespace muds

#endif  // MUDS_DATA_INGEST_H_
