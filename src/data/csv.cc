#include "data/csv.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/mmap_file.h"
#include "data/ingest.h"

namespace muds {

namespace {

bool NeedsQuoting(const std::string& value, const CsvOptions& options) {
  for (char c : value) {
    if (c == options.separator || c == options.quote || c == '\n' ||
        c == '\r') {
      return true;
    }
  }
  return false;
}

// `force_quote` quotes even when the content would not demand it — used for
// an empty field that is the only field of its record, which unquoted would
// serialize as a blank line and be skipped on re-read.
void AppendField(const std::string& value, const CsvOptions& options,
                 std::string* out, bool force_quote = false) {
  if (!force_quote && !NeedsQuoting(value, options)) {
    *out += value;
    return;
  }
  *out += options.quote;
  for (char c : value) {
    if (c == options.quote) *out += options.quote;
    *out += c;
  }
  *out += options.quote;
}

}  // namespace

Result<Relation> CsvReader::ReadString(std::string_view text,
                                       const CsvOptions& options,
                                       std::string name, ThreadPool* pool) {
  return IngestCsv(text, options, std::move(name), pool);
}

Result<Relation> CsvReader::ReadFile(const std::string& path,
                                     const CsvOptions& options,
                                     ThreadPool* pool) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  // Size the backing buffer from the file length and fill it with one
  // read — the parse then borrows string_views from it.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("error reading " + path);
  if (static_cast<size_t>(size) >= options.mmap_min_bytes) {
    // Large input: parse straight out of a read-only mapping. The relation
    // owns copies of everything it keeps, so the mapping is dropped as soon
    // as the parse returns.
    Result<MappedFile> mapped = MappedFile::Open(path);
    if (mapped.ok() && mapped.value().mapped()) {
      mapped.value().Advise(MappedFile::Advice::kSequential);
      return ReadString(mapped.value().view(), options, path, pool);
    }
    // Fall through to the buffered read on any mapping failure — including
    // a file that shrank to zero between the size probe above and the
    // mmap, where Open yields an unmapped (empty) file rather than an
    // error. The buffered read below re-checks the byte count against the
    // probed size and reports a clear I/O error instead of parsing a
    // truncated view.
  }
  in.seekg(0, std::ios::beg);
  std::string buffer(static_cast<size_t>(size), '\0');
  if (size > 0) {
    in.read(buffer.data(), size);
    if (in.bad() || in.gcount() != size) {
      return Status::IoError("error reading " + path);
    }
  }
  return ReadString(buffer, options, path, pool);
}

std::string CsvWriter::ToString(const Relation& relation,
                                const CsvOptions& options) {
  std::string out;
  const bool single_column = relation.NumColumns() == 1;
  for (int c = 0; c < relation.NumColumns(); ++c) {
    if (c > 0) out += options.separator;
    AppendField(relation.ColumnName(c), options, &out,
                single_column && relation.ColumnName(c).empty());
  }
  out += '\n';
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (int c = 0; c < relation.NumColumns(); ++c) {
      if (c > 0) out += options.separator;
      AppendField(relation.Value(row, c), options, &out,
                  single_column && relation.Value(row, c).empty());
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteFile(const Relation& relation, const std::string& path,
                            const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot create " + path);
  out << ToString(relation, options);
  if (!out) return Status::IoError("error writing " + path);
  return Status::Ok();
}

}  // namespace muds
