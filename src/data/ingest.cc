#include "data/ingest.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace muds {

namespace {

// Smallest automatic chunk: below this, splitting costs more (pre-scan,
// per-chunk dictionaries, remap tables) than the parallel parse recovers.
constexpr size_t kMinAutoChunkBytes = size_t{256} << 10;

// Chunks per worker thread: a few more than one so record-density skew
// between chunks balances out through the pool's dynamic claiming.
constexpr int kChunksPerThread = 4;

// Records whose byte length sizes a chunk's code buffers: a sample, so
// that one short first record cannot inflate the reservation.
constexpr size_t kSizingRecords = 64;

// The first min(size, 8) bytes of `value`, zero-padded, as one word: one
// unaligned load plus a length mask when the 8 bytes at value.data() are
// `readable` (inside the input buffer), else LoadShortWord's loads, which
// never pass the value's end. Both give the same word.
uint64_t FirstWord(std::string_view value, bool readable) {
  const size_t n = value.size();
  if (n < 8 && !readable) return LoadShortWord(value.data(), n);
  uint64_t word;
  std::memcpy(&word, value.data(), 8);
  return n < 8 ? word & ((uint64_t{1} << (8 * n)) - 1) : word;
}

// Flat linear-probing interning table for the chunk-local dictionary
// encode, kept at most half full so that probe runs stay short. A slot
// holds the value's first word (FirstWord), its bytes and its id. A value
// of at most 8 bytes is identified by its word plus its length ("a" and
// "a\0" share a word), so its hash is one multiply and a match two integer
// compares; a longer one hashes with HashBytes and compares the bytes past
// its first word. The table starts small and doubles, so a column pays
// only for the distinct values it actually holds.
class InternTable {
 public:
  static constexpr int32_t kAbsent = -1;

  InternTable() : slots_(kInitialSlots) {}

  // The id of `value`, whose first word is `word`, or kAbsent.
  int32_t Find(std::string_view value, uint64_t word) const {
    return slots_[Probe(value, word)].id;
  }

  // Adds `value`, which Find reported absent, under `id` (not kAbsent).
  void Insert(std::string_view value, uint64_t word, int32_t id) {
    slots_[Probe(value, word)] = Slot{word, value.data(), value.size(), id};
    if (2 * ++size_ > slots_.size()) Grow();
  }

 private:
  static constexpr size_t kInitialSlots = 16;

  struct Slot {
    uint64_t word = 0;
    const char* data = nullptr;
    size_t size = 0;
    int32_t id = kAbsent;
  };

  // The slot holding `value`, or the empty slot that ends its probe run.
  // The run starts at the hash's top bits, where a multiply mixes best.
  size_t Probe(std::string_view value, uint64_t word) const {
    const size_t n = value.size();
    const uint64_t hash = n <= 8 ? word * 0x9DDFEA08EB382D69ull
                                 : HashBytes(value.data(), n);
    for (size_t i = hash >> shift_;; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.id == kAbsent ||
          (slot.word == word && slot.size == n &&
           (n <= 8 ||
            std::memcmp(slot.data + 8, value.data() + 8, n - 8) == 0))) {
        return i;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.id != kAbsent) {
        slots_[Probe({slot.data, slot.size}, slot.word)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);
  size_t size_ = 0;
};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// Accumulates one field as a contiguous range of the input buffer for as
// long as possible, falling back to an arena copy the moment the content
// stops matching the raw bytes (doubled-quote unescapes, quoted-then-
// unquoted mixes). `empty()` mirrors RecordScanner's `field.empty()`, which
// gates quote opening.
class FieldBuilder {
 public:
  FieldBuilder(const char* base, std::deque<std::string>* arena)
      : base_(base), arena_(arena) {}

  bool empty() const { return empty_; }

  // Appends the raw bytes [begin, end).
  void AppendRange(size_t begin, size_t end) {
    if (begin == end) return;
    if (!materialized_) {
      if (empty_) {
        begin_ = begin;
        end_ = end;
        empty_ = false;
        return;
      }
      if (end_ == begin) {
        end_ = end;
        return;
      }
      Materialize();
    }
    scratch_.append(base_ + begin, end - begin);
    empty_ = false;
  }

  void AppendRaw(size_t pos) { AppendRange(pos, pos + 1); }

  // Finishes the field; the returned view is backed by the input buffer or,
  // if materialized, by the arena (stable addresses: deque).
  std::string_view Finish() {
    std::string_view view;
    if (materialized_) {
      arena_->push_back(std::move(scratch_));
      view = arena_->back();
    } else if (!empty_) {
      view = std::string_view(base_ + begin_, end_ - begin_);
    }
    materialized_ = false;
    empty_ = true;
    scratch_.clear();
    return view;
  }

 private:
  void Materialize() {
    scratch_.assign(base_ + begin_, end_ - begin_);
    materialized_ = true;
  }

  const char* base_;
  std::deque<std::string>* arena_;
  size_t begin_ = 0;
  size_t end_ = 0;
  std::string scratch_;
  bool materialized_ = false;
  bool empty_ = true;
};

// Zero-copy field scanner over one chunk [begin, end) of the buffer. The
// state machine is byte-for-byte the one in csv.cc's RecordScanner (quote
// opens only on an empty field, doubled quote is a literal, \r\n is one
// break, fully-blank lines are skipped) so that chunked parses agree with
// the streaming reference on every input. The caller keeps the scan
// position. A field without a quote byte is returned as a view of its
// bytes; only a field holding a quote byte goes through the FieldBuilder.
class ChunkParser {
 public:
  enum class Next { kRecord, kEnd, kUnterminatedQuote };
  // What ended a field.
  enum class End { kSeparator, kLineBreak, kEnd, kUnterminatedQuote };

  ChunkParser(std::string_view text, size_t end, const CsvOptions& options,
              std::deque<std::string>* arena)
      : text_(text), end_(end), options_(options), field_(text.data(), arena) {
    plain_.fill(true);
    plain_[static_cast<unsigned char>(options.quote)] = false;
    plain_[static_cast<unsigned char>(options.separator)] = false;
    plain_[static_cast<unsigned char>('\n')] = false;
    plain_[static_cast<unsigned char>('\r')] = false;
  }

  // Skips blank lines from `pos` to where the next record starts (at a
  // quote, a separator or any byte but a line break), or to the chunk end.
  size_t StartRecord(size_t pos) const {
    while (pos < end_) {
      const char c = text_[pos];
      if (c == options_.quote || c == options_.separator ||
          (c != '\n' && c != '\r')) {
        return pos;
      }
      ++pos;
      if (c == '\r' && pos < end_ && text_[pos] == '\n') ++pos;
    }
    return end_;
  }

  // Scans the field at `pos` into *field and consumes what ended it (a
  // "\r\n" break as one).
  End NextField(size_t& pos, std::string_view* field) {
    const size_t begin = pos;
    pos = PlainRunEnd(pos);
    *field = std::string_view(text_.data() + begin, pos - begin);
    if (pos < end_ && text_[pos] == options_.quote) {
      std::string_view quoted;
      pos = ScanQuotedField(begin, pos, &quoted);
      if (pos == kUnterminated) return End::kUnterminatedQuote;
      *field = quoted;
    }
    if (pos == end_) return End::kEnd;
    const char c = text_[pos++];
    if (c == options_.separator) return End::kSeparator;
    if (c == '\r' && pos < end_ && text_[pos] == '\n') ++pos;
    return End::kLineBreak;
  }

  Next NextRecord(size_t& pos, std::vector<std::string_view>* fields) {
    fields->clear();
    pos = StartRecord(pos);
    if (pos == end_) return Next::kEnd;
    for (;;) {
      std::string_view field;
      const End end = NextField(pos, &field);
      if (end == End::kUnterminatedQuote) return Next::kUnterminatedQuote;
      fields->push_back(field);
      if (end != End::kSeparator) return Next::kRecord;
    }
  }

 private:
  static constexpr size_t kUnterminated = ~size_t{0};

  // End of the run of plain bytes starting at `pos`.
  size_t PlainRunEnd(size_t pos) const {
    while (pos < end_ && plain_[static_cast<unsigned char>(text_[pos])]) {
      ++pos;
    }
    return pos;
  }

  // Finishes a field that starts at `begin` and holds a quote byte at
  // `pos`: runs the full state machine up to the separator or line break
  // that ends the field, whose position it returns (the byte is left
  // unconsumed), materializing into the arena only where the content
  // diverges from the raw bytes. kUnterminated on an unterminated quote.
  size_t ScanQuotedField(size_t begin, size_t pos, std::string_view* field) {
    field_.AppendRange(begin, pos);
    bool in_quotes = false;
    while (pos < end_) {
      const char c = text_[pos];
      if (in_quotes) {
        // Bulk-skip to the next quote; everything before it is content.
        const char* next = static_cast<const char*>(std::memchr(
            text_.data() + pos, options_.quote, end_ - pos));
        if (next == nullptr) return kUnterminated;
        const size_t quote_pos = static_cast<size_t>(next - text_.data());
        field_.AppendRange(pos, quote_pos);
        if (quote_pos + 1 < end_ && text_[quote_pos + 1] == options_.quote) {
          field_.AppendRaw(quote_pos);  // Doubled quote = literal quote.
          pos = quote_pos + 2;
        } else {
          in_quotes = false;
          pos = quote_pos + 1;
        }
        continue;
      }
      if (c == options_.quote && field_.empty()) {
        in_quotes = true;
        ++pos;
      } else if (c == options_.separator || c == '\n' || c == '\r') {
        break;
      } else {
        // A literal quote after content, and the plain run that follows.
        const size_t run = PlainRunEnd(pos + 1);
        field_.AppendRange(pos, run);
        pos = run;
      }
    }
    if (in_quotes) return kUnterminated;
    *field = field_.Finish();
    return pos;
  }

  std::string_view text_;
  size_t end_;
  const CsvOptions& options_;
  FieldBuilder field_;
  std::array<bool, 256> plain_;
};

// Quote-aware pre-scan: walks the same state machine as ChunkParser but
// only tracks enough state to find record boundaries (in-quotes and
// field-emptiness, which gates quote opening), and emits the first record
// start at or after each `target_bytes`-spaced offset. Stops as soon as no
// further split target can be reached.
std::vector<size_t> SplitRecordAligned(std::string_view text, size_t begin,
                                       const CsvOptions& options,
                                       size_t target_bytes) {
  std::vector<size_t> starts = {begin};
  const size_t n = text.size();
  std::array<bool, 256> plain;
  plain.fill(true);
  plain[static_cast<unsigned char>(options.quote)] = false;
  plain[static_cast<unsigned char>(options.separator)] = false;
  plain[static_cast<unsigned char>('\n')] = false;
  plain[static_cast<unsigned char>('\r')] = false;

  size_t next_target = begin + target_bytes;
  size_t pos = begin;
  bool in_quotes = false;
  bool field_empty = true;
  while (pos < n && next_target < n) {
    const char c = text[pos];
    if (in_quotes) {
      const char* next = static_cast<const char*>(
          std::memchr(text.data() + pos, options.quote, n - pos));
      if (next == nullptr) return starts;  // Unterminated: no more records.
      const size_t quote_pos = static_cast<size_t>(next - text.data());
      if (quote_pos > pos) field_empty = false;
      if (quote_pos + 1 < n && text[quote_pos + 1] == options.quote) {
        field_empty = false;
        pos = quote_pos + 2;
      } else {
        in_quotes = false;
        pos = quote_pos + 1;
      }
      continue;
    }
    if (c == options.quote && field_empty) {
      in_quotes = true;
      ++pos;
    } else if (c == options.separator) {
      field_empty = true;
      ++pos;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && pos + 1 < n && text[pos + 1] == '\n') ++pos;
      ++pos;
      field_empty = true;
      if (pos >= next_target && pos < n) {
        starts.push_back(pos);
        next_target = pos + target_bytes;
      }
    } else {
      size_t run = pos + 1;
      while (run < n && plain[static_cast<unsigned char>(text[run])]) ++run;
      field_empty = false;
      pos = run;
    }
  }
  return starts;
}

// Record-aligned split of data that holds no quote byte. Every '\n' then
// ends a record (alone or as the tail of "\r\n"), so each chunk starts one
// past the first '\n' at or after its byte target: one memchr per chunk
// instead of a state machine over every byte.
std::vector<size_t> SplitAtLineFeeds(std::string_view text, size_t begin,
                                     size_t target_bytes) {
  std::vector<size_t> starts = {begin};
  size_t target = begin + target_bytes;
  while (target < text.size()) {
    const char* line_feed = static_cast<const char*>(
        std::memchr(text.data() + target, '\n', text.size() - target));
    if (line_feed == nullptr) break;
    const size_t start = static_cast<size_t>(line_feed - text.data()) + 1;
    if (start >= text.size()) break;
    starts.push_back(start);
    target = start + target_bytes;
  }
  return starts;
}

// One column of one chunk, encoded against a chunk-local dictionary.
struct ChunkColumn {
  std::vector<std::string_view> distinct;  // [local_id], first-seen order
  CodeVector codes;                        // [local_row]
};

// Everything one chunk's parse produces; written by exactly one pool task.
// Cache-line aligned: chunks parsed side by side must not share a line.
struct alignas(64) ChunkData {
  std::vector<ChunkColumn> encoded;  // [col], valid records only
  // Owns unescaped fields and synthesized NULL values (stable addresses).
  std::deque<std::string> arena;
  // kNullUnequal: NULL cells in row-major scan order. Each took a fresh
  // local id whose text is filled in once the global numbering is known.
  struct NullCell {
    int64_t row;
    int32_t col;
    int32_t id;
  };
  std::vector<NullCell> null_cells;
  int64_t num_records = 0;
  // First arity-mismatched record: its index among this chunk's data
  // records, and its field count. Parsing stops there (rows past the first
  // error are never needed — see the error-resolution pass).
  int64_t bad_local = -1;
  size_t bad_fields = 0;
  bool unterminated = false;
};

// Per-column encode state of one chunk's parse.
struct ColumnState {
  InternTable table;
  int32_t* codes = nullptr;  // The column's ChunkColumn::codes.
  // A near-unique column (a key, say) empties its table and adds no more:
  // deduplicating it buys nothing, as the merge sort deduplicates anyway
  // (duplicate entries in `distinct` get the same rank).
  bool near_unique = false;
};

// Table id of the NULL token under NULL != NULL; its cells take fresh ids.
constexpr int32_t kNullId = InternTable::kAbsent - 1;

// Parses one chunk and dictionary-encodes it field by field: each field is
// looked up in its column's chunk-local table as it is scanned, and its
// code is written at its row; only a miss (a new value, a NULL cell under
// NULL != NULL, any cell of a near-unique column) leaves that path. The
// code vectors hold kSizingRecords rows, then as many as those records'
// bytes predict for the chunk, doubling only when that runs short. A
// record that does not complete (wrong arity, unterminated quote) ends the
// parse and leaves no trace: it is not counted, and the values it added
// come back out of `distinct` and `null_cells`, since a max_rows cut
// exactly at it keeps every earlier row and so would drop none of them.
void ParseChunk(std::string_view text, size_t begin, size_t end,
                const CsvOptions& options, int num_columns, ChunkData* out) {
  using End = ChunkParser::End;
  const size_t width = static_cast<size_t>(num_columns);
  out->encoded.resize(width);
  std::vector<ColumnState> states(width);
  const auto add_null_token = [&options](InternTable* table) {
    if (options.nulls == NullSemantics::kNullUnequal) {
      table->Insert(options.null_token, FirstWord(options.null_token, false),
                    kNullId);
    }
  };
  for (ColumnState& state : states) add_null_token(&state.table);
  std::vector<size_t> grew;  // Columns the current record added a value to.
  ChunkParser parser(text, end, options, &out->arena);
  size_t capacity = 0;  // Rows each code vector holds.
  int64_t row = 0;
  for (size_t pos = parser.StartRecord(begin); pos < end;
       pos = parser.StartRecord(pos), ++row) {
    const size_t rows = static_cast<size_t>(row);
    if (rows == capacity) {
      capacity = rows == 0 ? kSizingRecords
                 : rows == kSizingRecords
                     ? (end - begin) * kSizingRecords / (pos - begin) + 1
                     : 2 * capacity;
      for (size_t c = 0; c < width; ++c) {
        // Cut to the written rows first, so that growing copies only those.
        CodeVector& codes = out->encoded[c].codes;
        codes.resize(rows);
        codes.resize(capacity);
        states[c].codes = codes.data();
      }
    }
    grew.clear();
    size_t fields = 0;
    End ended = End::kSeparator;
    while (ended == End::kSeparator) {
      const size_t field_begin = pos;
      std::string_view value;
      ended = parser.NextField(pos, &value);
      if (ended == End::kUnterminatedQuote) break;
      const size_t c = fields++;
      if (c >= width) continue;  // Over-wide: counted, not encoded.
      ColumnState& state = states[c];
      // A view of the buffer from the field's start (an arena copy never
      // starts there) may be read 8 bytes wide while 8 bytes are left.
      const bool readable = value.data() == text.data() + field_begin &&
                            text.size() - field_begin >= 8;
      const uint64_t word = FirstWord(value, readable);
      int32_t id = state.table.Find(value, word);
      if (id < 0) {
        ChunkColumn& column = out->encoded[c];
        const bool null = id == kNullId;
        id = static_cast<int32_t>(column.distinct.size());
        grew.push_back(c);
        if (null) {
          out->null_cells.push_back({row, static_cast<int32_t>(c), id});
          column.distinct.emplace_back();
        } else {
          column.distinct.push_back(value);
          if (!state.near_unique) {
            state.table.Insert(value, word, id);
            state.near_unique = column.distinct.size() >= 4096 &&
                                column.distinct.size() * 4 >=
                                    static_cast<size_t>(row + 1) * 3;
            if (state.near_unique) {
              state.table = InternTable();
              add_null_token(&state.table);
            }
          }
        }
      }
      state.codes[rows] = id;
    }
    if (ended != End::kUnterminatedQuote && fields == width) continue;
    for (const size_t c : grew) out->encoded[c].distinct.pop_back();
    while (!out->null_cells.empty() && out->null_cells.back().row == row) {
      out->null_cells.pop_back();
    }
    out->unterminated = ended == End::kUnterminatedQuote;
    out->bad_local = out->unterminated ? -1 : row;
    out->bad_fields = fields;
    break;
  }
  out->num_records = row;
}

}  // namespace

Result<Relation> IngestCsv(std::string_view text, const CsvOptions& options,
                           std::string name, ThreadPool* pool) {
  if (pool == nullptr && options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(options.num_threads));
  }
  // Schema: the first record names the columns (or sizes col0..colN-1).
  std::vector<std::string> column_names;
  size_t data_begin = 0;
  {
    std::deque<std::string> arena;
    std::vector<std::string_view> fields;
    ChunkParser probe(text, text.size(), options, &arena);
    size_t pos = 0;
    const ChunkParser::Next next = probe.NextRecord(pos, &fields);
    if (next == ChunkParser::Next::kUnterminatedQuote) {
      return Status::ParseError("unterminated quoted field in record 1");
    }
    if (next == ChunkParser::Next::kEnd) {
      return Status::ParseError(options.has_header
                                    ? "empty input: missing header record"
                                    : "empty input");
    }
    column_names.reserve(fields.size());
    if (options.has_header) {
      for (const std::string_view field : fields) {
        column_names.emplace_back(field);
      }
      data_begin = pos;
    } else {
      for (size_t i = 0; i < fields.size(); ++i) {
        column_names.push_back("col" + std::to_string(i));
      }
    }
    if (static_cast<int>(column_names.size()) > ColumnSet::kMaxColumns) {
      return Status::InvalidArgument(
          "too many columns: " + std::to_string(column_names.size()) + " > " +
          std::to_string(ColumnSet::kMaxColumns));
    }
  }
  const int num_columns = static_cast<int>(column_names.size());
  const int64_t cut = options.max_rows;  // < 0 = keep everything.

  // The parse is CPU-bound: threads beyond the core count only add
  // oversubscription, so a direct call's own pool is capped at the hardware
  // (ThreadPool resolves 0 to it), and chunks are sized for at most that
  // many threads on any pool (the result is identical at every count).
  std::optional<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(std::min(options.num_threads, HardwareThreads()));
    pool = &*own_pool;
  }
  const int num_threads = std::min(pool->NumThreads(), HardwareThreads());

  // Record-aligned chunking.
  const size_t data_size = text.size() - data_begin;
  std::vector<size_t> starts;
  if (data_size > 0) {
    MUDS_TRACE_SPAN("ingest.scan");
    size_t target = options.chunk_bytes;
    if (target == 0) {
      target = num_threads <= 1
                   ? data_size
                   : std::max(kMinAutoChunkBytes,
                              data_size / static_cast<size_t>(
                                              num_threads * kChunksPerThread));
    }
    if (target >= data_size) {
      starts = {data_begin};
    } else if (options.separator != '\n' &&
               std::memchr(text.data() + data_begin, options.quote,
                           data_size) == nullptr) {
      starts = SplitAtLineFeeds(text, data_begin, target);
    } else {
      starts = SplitRecordAligned(text, data_begin, options, target);
    }
  }

  const int num_chunks = static_cast<int>(starts.size());
  std::vector<ChunkData> chunks(static_cast<size_t>(num_chunks));
  {
    MUDS_TRACE_SPAN("ingest.parse");
    // Each chunk's parse time, summed: next to the span's wall time, what
    // the threads cost each other.
    Counter* const parse_ns =
        MetricsRegistry::Global().GetCounter("ingest.parse_ns");
    pool->ParallelFor(0, num_chunks, [&](int64_t i) {
      const auto start = std::chrono::steady_clock::now();
      const size_t begin = starts[static_cast<size_t>(i)];
      const size_t end = i + 1 < num_chunks
                             ? starts[static_cast<size_t>(i + 1)]
                             : text.size();
      ParseChunk(text, begin, end, options, num_columns,
                 &chunks[static_cast<size_t>(i)]);
      parse_ns->Add((std::chrono::steady_clock::now() - start) /
                    std::chrono::nanoseconds(1));
    });
  }

  // Error resolution, in file order. Arity errors past the max_rows cut are
  // never seen by the streaming reference (it stops scanning first), and an
  // unterminated final record is reported only if scanning reaches it —
  // i.e. only when at most max_rows records precede it.
  int64_t bad_global = -1;
  size_t bad_fields = 0;
  bool unterminated = false;
  int64_t total_records = 0;
  for (const ChunkData& chunk : chunks) {
    if (bad_global < 0 && chunk.bad_local >= 0) {
      bad_global = total_records + chunk.bad_local;
      bad_fields = chunk.bad_fields;
    }
    if (chunk.unterminated) unterminated = true;
    total_records += chunk.num_records;
  }
  if (bad_global >= 0) {
    if (cut < 0 || bad_global < cut) {
      return Status::ParseError(
          name + ": data row " + std::to_string(bad_global + 1) + " has " +
          std::to_string(bad_fields) + " fields, expected " +
          std::to_string(num_columns));
    }
  } else if (unterminated && (cut < 0 || total_records <= cut)) {
    const int64_t record_number =
        (options.has_header ? 1 : 0) + total_records;
    return Status::ParseError("unterminated quoted field in record " +
                              std::to_string(record_number + 1));
  }

  // Row cut and per-chunk row offsets (global row = offset + local row).
  std::vector<int64_t> keep(static_cast<size_t>(num_chunks), 0);
  std::vector<int64_t> row_offset(static_cast<size_t>(num_chunks), 0);
  int64_t total_rows = 0;
  for (int i = 0; i < num_chunks; ++i) {
    const int64_t records = chunks[static_cast<size_t>(i)].num_records;
    row_offset[static_cast<size_t>(i)] = total_rows;
    const int64_t kept =
        cut < 0 ? records
                : std::clamp<int64_t>(cut - total_rows, 0, records);
    keep[static_cast<size_t>(i)] = kept;
    total_rows += kept;
    if (cut >= 0 && total_rows >= cut) {
      // Later chunks contribute nothing; their keep stays 0.
      break;
    }
  }

  // Rows past the max_rows cut: drop the local ids only they use. Ids are
  // numbered in first-seen order, so the kept rows use exactly the ids up
  // to their largest code.
  for (int i = 0; i < num_chunks; ++i) {
    ChunkData& chunk = chunks[static_cast<size_t>(i)];
    const int64_t kept = keep[static_cast<size_t>(i)];
    if (kept == chunk.num_records) continue;
    for (ChunkColumn& column : chunk.encoded) {
      const auto kept_end = column.codes.begin() + kept;
      column.distinct.resize(
          kept == 0 ? 0
                    : static_cast<size_t>(*std::max_element(
                          column.codes.begin(), kept_end)) + 1);
    }
  }

  // NULL != NULL: each null cell holds its own local id; its text is the
  // per-cell unique value, numbered in global row-major order (chunks know
  // their prefix offsets).
  if (options.nulls == NullSemantics::kNullUnequal) {
    std::vector<int64_t> null_kept(static_cast<size_t>(num_chunks), 0);
    std::vector<int64_t> null_offset(static_cast<size_t>(num_chunks), 0);
    int64_t total_nulls = 0;
    for (int i = 0; i < num_chunks; ++i) {
      const ChunkData& chunk = chunks[static_cast<size_t>(i)];
      const auto first_cut = std::partition_point(
          chunk.null_cells.begin(), chunk.null_cells.end(),
          [&](const ChunkData::NullCell& cell) {
            return cell.row < keep[static_cast<size_t>(i)];
          });
      null_kept[static_cast<size_t>(i)] =
          first_cut - chunk.null_cells.begin();
      null_offset[static_cast<size_t>(i)] = total_nulls;
      total_nulls += null_kept[static_cast<size_t>(i)];
    }
    pool->ParallelFor(0, num_chunks, [&](int64_t i) {
      ChunkData& chunk = chunks[static_cast<size_t>(i)];
      for (int64_t j = 0; j < null_kept[static_cast<size_t>(i)]; ++j) {
        const ChunkData::NullCell& cell =
            chunk.null_cells[static_cast<size_t>(j)];
        chunk.arena.push_back(
            std::string("\x01null#") +
            std::to_string(null_offset[static_cast<size_t>(i)] + j));
        chunk.encoded[static_cast<size_t>(cell.col)]
            .distinct[static_cast<size_t>(cell.id)] = chunk.arena.back();
      }
    });
  }

  // Merge: the global dictionary is the sorted union of the chunk
  // dictionaries, and each chunk's local codes are remapped to global ranks
  // — independent of chunk count and thread count by construction.
  std::vector<Column> columns(static_cast<size_t>(num_columns));
  {
    MUDS_TRACE_SPAN("ingest.merge");
    pool->ParallelFor(0, num_columns, [&](int64_t c) {
      // One sort of (value, chunk, local_id) entries ranks the union and
      // yields every chunk's remap table in the same walk — no per-value
      // binary searches or hash probes. The big-endian 8-byte prefix key
      // turns most comparisons into one integer compare; the full value
      // breaks prefix ties.
      struct Entry {
        uint64_t key;
        std::string_view value;
        int32_t chunk;
        int32_t local_id;
      };
      const auto prefix_key = [](std::string_view value) {
        uint64_t key = 0;
        const size_t n = std::min<size_t>(value.size(), 8);
        for (size_t i = 0; i < n; ++i) {
          key |= static_cast<uint64_t>(static_cast<unsigned char>(value[i]))
                 << (56 - 8 * i);
        }
        return key;
      };
      size_t total_distinct = 0;
      for (const ChunkData& chunk : chunks) {
        total_distinct +=
            chunk.encoded[static_cast<size_t>(c)].distinct.size();
      }
      std::vector<Entry> entries;
      entries.reserve(total_distinct);
      std::vector<std::vector<int32_t>> remap(
          static_cast<size_t>(num_chunks));
      for (int i = 0; i < num_chunks; ++i) {
        const auto& distinct =
            chunks[static_cast<size_t>(i)].encoded[static_cast<size_t>(c)]
                .distinct;
        remap[static_cast<size_t>(i)].resize(distinct.size());
        for (size_t id = 0; id < distinct.size(); ++id) {
          entries.push_back(Entry{prefix_key(distinct[id]), distinct[id], i,
                                  static_cast<int32_t>(id)});
        }
      }
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) {
                  return a.key != b.key ? a.key < b.key : a.value < b.value;
                });

      Column& column = columns[static_cast<size_t>(c)];
      column.dictionary.reserve(entries.size());
      int32_t rank = -1;
      std::string_view previous;
      for (const Entry& entry : entries) {
        if (rank < 0 || entry.value != previous) {
          ++rank;
          previous = entry.value;
          column.dictionary.emplace_back(entry.value);
        }
        remap[static_cast<size_t>(entry.chunk)]
             [static_cast<size_t>(entry.local_id)] = rank;
      }

      // Chunk 0's code vector becomes the column's, cut or grown to
      // total_rows without a zero-fill, remapped in place; later chunks are
      // remapped into it at their offsets, and each is freed once read. Rows
      // parsed past a max_rows cut were written, and the column lives as
      // long as the relation: give back capacity beyond twice the rows.
      CodeVector& codes = column.codes;
      if (num_chunks > 0) {
        codes = std::move(chunks[0].encoded[static_cast<size_t>(c)].codes);
        codes.resize(static_cast<size_t>(keep[0]));  // Growing copies these.
      }
      codes.resize(static_cast<size_t>(total_rows));
      if (codes.capacity() > 2 * codes.size()) codes.shrink_to_fit();
      for (int i = 0; i < num_chunks; ++i) {
        CodeVector& chunk_codes =
            i == 0 ? codes
                   : chunks[static_cast<size_t>(i)]
                         .encoded[static_cast<size_t>(c)]
                         .codes;
        const auto& chunk_remap = remap[static_cast<size_t>(i)];
        int32_t* out = codes.data() + row_offset[static_cast<size_t>(i)];
        for (int64_t j = 0; j < keep[static_cast<size_t>(i)]; ++j) {
          out[j] = chunk_remap[static_cast<size_t>(chunk_codes[j])];
        }
        if (i > 0) chunk_codes = CodeVector();
      }
    });
  }

  metrics::Add("ingest.bytes", static_cast<int64_t>(text.size()));
  metrics::Add("ingest.records", total_rows);
  metrics::Add("ingest.chunks", num_chunks);

  return Relation(std::move(name), std::move(column_names),
                  std::move(columns), static_cast<RowId>(total_rows));
}

}  // namespace muds
