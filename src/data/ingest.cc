#include "data/ingest.h"

#include <algorithm>
#include <array>
#include <bit>
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
#include "common/simd.h"
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

// Records whose byte length sizes a chunk's code vectors: a sample, so
// that one short first record cannot inflate the reservation.
constexpr int64_t kSizingRecords = 64;

// SwissTable-style flat interning table for the chunk-local dictionary
// encode: one control byte (7 hash bits) per slot, probed 16 slots at a
// time with simd::MatchTag16, open addressing over groups, no deletions.
// The group probe turns a per-cell bucket walk into one SIMD compare plus
// (almost always) at most one full key compare. The table starts small
// and doubles when 7/8 full, so a column pays only for the distinct values
// it actually holds.
// A value of at most 8 bytes is keyed by its exact word plus its length
// (LoadShortWord): integer hash and compare. A longer one keeps HashBytes
// and the string compare, behind a check of its first 8 bytes.
class InternTable {
 public:
  static constexpr size_t kGroup = 16;
  static constexpr uint8_t kEmpty = 0xFF;  // Tags keep the high bit clear.

  InternTable() { Allocate(4 * kGroup); }

  // Returns the id of `value`, inserting it with id `next_id` when absent;
  // *inserted reports which happened.
  int32_t Intern(std::string_view value, int32_t next_id, bool* inserted) {
    const uint64_t word =
        LoadShortWord(value.data(), std::min<size_t>(value.size(), 8));
    const uint64_t hash = Hash(value, word);
    const uint8_t tag = static_cast<uint8_t>(hash & 0x7F);
    size_t group = (hash >> 7) & group_mask_;
    for (;;) {
      const uint8_t* tags = tags_.data() + group * kGroup;
      uint32_t match = simd::MatchTag16(tags, tag);
      while (match != 0) {
        const Slot& slot = slots_[group * kGroup +
                                  static_cast<size_t>(std::countr_zero(match))];
        if (slot.word == word && slot.key.size() == value.size() &&
            (value.size() <= 8 || slot.key == value)) {
          *inserted = false;
          return slot.id;
        }
        match &= match - 1;
      }
      if (simd::MatchTag16(tags, kEmpty) != 0) {
        // With no deletions, the first group holding an empty slot ends the
        // probe chain: the key cannot live further along.
        if (size_ == max_size_) Grow();
        Place(hash, Slot{word, value, next_id});
        *inserted = true;
        return next_id;
      }
      group = (group + 1) & group_mask_;
    }
  }

 private:
  struct Slot {
    uint64_t word;
    std::string_view key;
    int32_t id;
  };

  // Bijective on a short key, so values of at most 7 bytes never collide.
  static uint64_t Hash(std::string_view value, uint64_t word) {
    if (value.size() > 8) return HashBytes(value.data(), value.size());
    const uint64_t h =
        (word ^ (uint64_t{value.size()} << 56)) * 0x9DDFEA08EB382D69ull;
    return h ^ (h >> 32);
  }

  // Empties the table at `capacity` slots (a power of two >= kGroup). The
  // 7/8 load cap keeps an empty slot in every probe chain.
  void Allocate(size_t capacity) {
    tags_.assign(capacity, kEmpty);
    slots_.resize(capacity);
    group_mask_ = capacity / kGroup - 1;
    size_ = 0;
    max_size_ = capacity - capacity / 8;
  }

  // Puts an absent key into the first empty slot of its probe chain.
  void Place(uint64_t hash, const Slot& entry) {
    size_t group = (hash >> 7) & group_mask_;
    for (;;) {
      const uint32_t empty =
          simd::MatchTag16(tags_.data() + group * kGroup, kEmpty);
      if (empty != 0) {
        const size_t slot =
            group * kGroup + static_cast<size_t>(std::countr_zero(empty));
        tags_[slot] = static_cast<uint8_t>(hash & 0x7F);
        slots_[slot] = entry;
        ++size_;
        return;
      }
      group = (group + 1) & group_mask_;
    }
  }

  void Grow() {
    const std::vector<uint8_t> tags = std::move(tags_);
    const std::vector<Slot> slots = std::move(slots_);
    Allocate(2 * tags.size());
    for (size_t i = 0; i < tags.size(); ++i) {
      if (tags[i] != kEmpty) Place(Hash(slots[i].key, slots[i].word), slots[i]);
    }
  }

  std::vector<uint8_t> tags_;
  std::vector<Slot> slots_;
  size_t group_mask_ = 0;
  size_t size_ = 0;
  size_t max_size_ = 0;
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
// the streaming reference on every input. A field without a quote byte is
// returned as a view of its bytes; only a field holding a quote byte goes
// through the FieldBuilder.
class ChunkParser {
 public:
  enum class Next { kRecord, kEnd, kUnterminatedQuote };
  // What ended a field.
  enum class End { kSeparator, kLineBreak, kEnd, kUnterminatedQuote };

  ChunkParser(std::string_view text, size_t begin, size_t end,
              const CsvOptions& options, std::deque<std::string>* arena)
      : text_(text),
        pos_(begin),
        end_(end),
        options_(options),
        field_(text.data(), arena) {
    plain_.fill(true);
    plain_[static_cast<unsigned char>(options.quote)] = false;
    plain_[static_cast<unsigned char>(options.separator)] = false;
    plain_[static_cast<unsigned char>('\n')] = false;
    plain_[static_cast<unsigned char>('\r')] = false;
  }

  // Skips blank lines at a record start; false when no record is left. A
  // record starts at a quote, a separator or any byte but a line break.
  bool StartRecord() {
    while (pos_ < end_) {
      const char c = text_[pos_];
      if (c == options_.quote || c == options_.separator ||
          (c != '\n' && c != '\r')) {
        return true;
      }
      ++pos_;
      if (c == '\r' && pos_ < end_ && text_[pos_] == '\n') ++pos_;
    }
    return false;
  }

  // Scans the field at pos_ into *field and consumes what ended it (a
  // "\r\n" break as one).
  End NextField(std::string_view* field) {
    const size_t begin = pos_;
    pos_ = PlainRunEnd(pos_);
    *field = std::string_view(text_.data() + begin, pos_ - begin);
    if (pos_ < end_ && text_[pos_] == options_.quote &&
        !ScanQuotedField(begin, field)) {
      return End::kUnterminatedQuote;
    }
    if (pos_ == end_) return End::kEnd;
    const char c = text_[pos_++];
    if (c == options_.separator) return End::kSeparator;
    if (c == '\r' && pos_ < end_ && text_[pos_] == '\n') ++pos_;
    return End::kLineBreak;
  }

  Next NextRecord(std::vector<std::string_view>* fields) {
    fields->clear();
    if (!StartRecord()) return Next::kEnd;
    for (;;) {
      std::string_view field;
      const End end = NextField(&field);
      if (end == End::kUnterminatedQuote) return Next::kUnterminatedQuote;
      fields->push_back(field);
      if (end != End::kSeparator) return Next::kRecord;
    }
  }

  size_t pos() const { return pos_; }

 private:
  // End of the run of plain bytes starting at `pos`.
  size_t PlainRunEnd(size_t pos) const {
    while (pos < end_ && plain_[static_cast<unsigned char>(text_[pos])]) {
      ++pos;
    }
    return pos;
  }

  // Finishes a field that starts at `begin` and holds a quote byte at pos_:
  // runs the full state machine up to the separator or line break that
  // ends the field (left unconsumed), materializing into the arena only
  // where the content diverges from the raw bytes. False on an
  // unterminated quote.
  bool ScanQuotedField(size_t begin, std::string_view* field) {
    field_.AppendRange(begin, pos_);
    bool in_quotes = false;
    while (pos_ < end_) {
      const char c = text_[pos_];
      if (in_quotes) {
        // Bulk-skip to the next quote; everything before it is content.
        const char* next = static_cast<const char*>(std::memchr(
            text_.data() + pos_, options_.quote, end_ - pos_));
        if (next == nullptr) {
          pos_ = end_;
          return false;
        }
        const size_t quote_pos = static_cast<size_t>(next - text_.data());
        field_.AppendRange(pos_, quote_pos);
        if (quote_pos + 1 < end_ && text_[quote_pos + 1] == options_.quote) {
          field_.AppendRaw(quote_pos);  // Doubled quote = literal quote.
          pos_ = quote_pos + 2;
        } else {
          in_quotes = false;
          pos_ = quote_pos + 1;
        }
        continue;
      }
      if (c == options_.quote && field_.empty()) {
        in_quotes = true;
        ++pos_;
      } else if (c == options_.separator || c == '\n' || c == '\r') {
        break;
      } else {
        // A literal quote after content, and the plain run that follows.
        const size_t run = PlainRunEnd(pos_ + 1);
        field_.AppendRange(pos_, run);
        pos_ = run;
      }
    }
    if (in_quotes) return false;
    *field = field_.Finish();
    return true;
  }

  std::string_view text_;
  size_t pos_;
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
  std::vector<int32_t> codes;              // [local_row]
};

// Everything one chunk's parse produces; written by exactly one pool task.
// Cache-line aligned: the record count is written once per record, and
// chunks that share a line would stall each other's parse.
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

// Parses one chunk and dictionary-encodes it field by field: each field is
// interned into its column's chunk-local table, one hash probe per cell, as
// it is scanned. A record that does not complete (wrong arity, unterminated
// quote) ends the parse and leaves no trace: its cells are taken back out
// of `codes`, `distinct` and `null_cells`, since a max_rows cut exactly at
// it keeps every earlier row and so would drop none of its values.
void ParseChunk(std::string_view text, size_t begin, size_t end,
                const CsvOptions& options, int num_columns, ChunkData* out) {
  using End = ChunkParser::End;
  const size_t width = static_cast<size_t>(num_columns);
  out->encoded.resize(width);
  std::vector<InternTable> tables(width);
  std::vector<bool> near_unique(width, false);
  std::vector<size_t> grew;  // Columns the current record added a value to.
  ChunkParser parser(text, begin, end, options, &out->arena);
  const bool scan_nulls = options.nulls == NullSemantics::kNullUnequal;
  while (parser.StartRecord()) {
    const int64_t row = out->num_records;
    grew.clear();
    size_t fields = 0;
    End ended = End::kSeparator;
    while (ended == End::kSeparator) {
      std::string_view value;
      ended = parser.NextField(&value);
      if (ended == End::kUnterminatedQuote) break;
      const size_t c = fields++;
      if (c >= width) continue;  // Over-wide: counted, not encoded.
      ChunkColumn& column = out->encoded[c];
      const int32_t fresh = static_cast<int32_t>(column.distinct.size());
      int32_t id = fresh;
      if (scan_nulls && value == options.null_token) {
        out->null_cells.push_back({row, static_cast<int32_t>(c), fresh});
        column.distinct.emplace_back();
      } else if (near_unique[c]) {
        column.distinct.push_back(value);
      } else {
        bool inserted = false;
        id = tables[c].Intern(value, fresh, &inserted);
        if (inserted) {
          column.distinct.push_back(value);
          // Near-unique column (a key, say): deduplicating here buys
          // nothing — the merge sort deduplicates anyway, and duplicate
          // entries in `distinct` are harmless (each gets the same rank).
          // Stop paying a hash probe per cell once that's clear.
          near_unique[c] = column.distinct.size() >= 4096 &&
                           column.distinct.size() * 4 >=
                               static_cast<size_t>(row + 1) * 3;
        }
      }
      if (id == fresh) grew.push_back(c);
      column.codes.push_back(id);
    }
    if (ended != End::kUnterminatedQuote && fields == width) {
      if (++out->num_records == kSizingRecords) {
        // Sized from the chunk's first records, code vectors seldom regrow.
        const size_t records =
            (end - begin) * kSizingRecords / (parser.pos() - begin) + 1;
        for (ChunkColumn& column : out->encoded) column.codes.reserve(records);
      }
      continue;
    }
    for (size_t c = 0; c < std::min(fields, width); ++c) {
      out->encoded[c].codes.pop_back();
    }
    for (const size_t c : grew) out->encoded[c].distinct.pop_back();
    while (!out->null_cells.empty() && out->null_cells.back().row == row) {
      out->null_cells.pop_back();
    }
    out->unterminated = ended == End::kUnterminatedQuote;
    out->bad_local = out->unterminated ? -1 : row;
    out->bad_fields = fields;
    return;
  }
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
    ChunkParser probe(text, 0, text.size(), options, &arena);
    const ChunkParser::Next next = probe.NextRecord(&fields);
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
      data_begin = probe.pos();
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
    pool->ParallelFor(0, num_chunks, [&](int64_t i) {
      const size_t begin = starts[static_cast<size_t>(i)];
      const size_t end = i + 1 < num_chunks
                             ? starts[static_cast<size_t>(i + 1)]
                             : text.size();
      ParseChunk(text, begin, end, options, num_columns,
                 &chunks[static_cast<size_t>(i)]);
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
      // total_rows, so with one chunk nothing is zero-filled only to be
      // overwritten. Rows parsed past a max_rows cut were written, and the
      // column lives as long as the relation: give back capacity beyond
      // twice the rows.
      std::vector<int32_t>& codes = column.codes;
      if (num_chunks > 0) {
        codes = std::move(chunks[0].encoded[static_cast<size_t>(c)].codes);
      }
      codes.resize(static_cast<size_t>(total_rows));
      if (codes.capacity() > 2 * codes.size()) codes.shrink_to_fit();
      for (int i = 0; i < num_chunks; ++i) {
        // Chunk 0 is remapped in place (its offset is 0).
        const int32_t* in =
            i == 0 ? codes.data()
                   : chunks[static_cast<size_t>(i)]
                         .encoded[static_cast<size_t>(c)]
                         .codes.data();
        const auto& chunk_remap = remap[static_cast<size_t>(i)];
        int32_t* out = codes.data() + row_offset[static_cast<size_t>(i)];
        for (int64_t j = 0; j < keep[static_cast<size_t>(i)]; ++j) {
          out[j] = chunk_remap[static_cast<size_t>(in[j])];
        }
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
