#include "testing/reference_csv.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "setops/column_set.h"

namespace muds {

namespace {

// Incremental CSV record scanner over a string_view.
class RecordScanner {
 public:
  RecordScanner(std::string_view text, const CsvOptions& options)
      : text_(text), options_(options) {}

  // Reads the next record into `fields`. Returns false at end of input.
  // Fully-empty records (a line break with no field content, separator, or
  // quote before it — outside quotes) are blank lines, not one-empty-field
  // records: they are skipped, wherever they appear. On a malformed record
  // (unterminated quote) sets `error`.
  bool NextRecord(std::vector<std::string>* fields, Status* error) {
    fields->clear();
    std::string field;
    bool in_quotes = false;
    bool saw_content = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (in_quotes) {
        if (c == options_.quote) {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == options_.quote) {
            field += options_.quote;  // Doubled quote = literal quote.
            pos_ += 2;
          } else {
            in_quotes = false;
            ++pos_;
          }
        } else {
          field += c;
          ++pos_;
        }
        continue;
      }
      if (c == options_.quote && field.empty()) {
        in_quotes = true;
        saw_content = true;
        ++pos_;
      } else if (c == options_.separator) {
        fields->push_back(std::move(field));
        field.clear();
        saw_content = true;
        ++pos_;
      } else if (c == '\n' || c == '\r') {
        // Consume the line break ("\r\n" counts as one).
        if (c == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
          ++pos_;
        }
        ++pos_;
        if (!saw_content) continue;  // Blank line: skip, keep scanning.
        fields->push_back(std::move(field));
        ++record_number_;
        return true;
      } else {
        field += c;
        saw_content = true;
        ++pos_;
      }
    }
    if (in_quotes) {
      *error = Status::ParseError("unterminated quoted field in record " +
                                  std::to_string(record_number_ + 1));
      return false;
    }
    if (saw_content) {
      fields->push_back(std::move(field));
      ++record_number_;
      return true;
    }
    return false;
  }

 private:
  std::string_view text_;
  CsvOptions options_;
  size_t pos_ = 0;
  int64_t record_number_ = 0;
};

// The schema record fixes the column count; a relation wider than a
// ColumnSet can address is refused before any data record is read.
Status CheckSchemaWidth(size_t num_columns) {
  if (static_cast<int>(num_columns) <= ColumnSet::kMaxColumns) {
    return Status::Ok();
  }
  return Status::InvalidArgument("too many columns: " +
                                 std::to_string(num_columns) + " > " +
                                 std::to_string(ColumnSet::kMaxColumns));
}

}  // namespace

Result<Relation> ReferenceCsvReader::ReadString(std::string_view text,
                                                const CsvOptions& options,
                                                std::string name) {
  RecordScanner scanner(text, options);
  std::vector<std::string> fields;
  Status error;
  // NULL ≠ NULL: rewrite each null cell into a per-cell unique value, so
  // nulls never compare equal to anything (including each other).
  int64_t null_counter = 0;
  const auto apply_nulls = [&](std::vector<std::string>* record) {
    if (options.nulls != NullSemantics::kNullUnequal) return;
    for (std::string& cell : *record) {
      if (cell == options.null_token) {
        cell = std::string("\x01null#") + std::to_string(null_counter++);
      }
    }
  };

  std::vector<std::string> column_names;
  if (options.has_header) {
    if (!scanner.NextRecord(&fields, &error)) {
      if (!error.ok()) return error;
      return Status::ParseError("empty input: missing header record");
    }
    column_names = fields;
    const Status width = CheckSchemaWidth(column_names.size());
    if (!width.ok()) return width;
  }

  RelationBuilder* builder = nullptr;
  std::optional<RelationBuilder> storage;
  int64_t rows_read = 0;
  while (scanner.NextRecord(&fields, &error)) {
    if (builder == nullptr) {
      // Create the builder before honoring max_rows: the first record
      // defines the schema even when no data row survives the cap (e.g.
      // --no-header --max-rows=0 still yields a 0-row relation).
      if (!options.has_header) {
        const Status width = CheckSchemaWidth(fields.size());
        if (!width.ok()) return width;
        column_names.reserve(fields.size());
        for (size_t i = 0; i < fields.size(); ++i) {
          column_names.push_back("col" + std::to_string(i));
        }
      }
      storage.emplace(column_names, name);
      builder = &*storage;
      if (!options.has_header) {
        if (options.max_rows >= 0 && rows_read >= options.max_rows) break;
        apply_nulls(&fields);
        builder->AddRow(fields);
        ++rows_read;
        continue;
      }
    }
    if (options.max_rows >= 0 && rows_read >= options.max_rows) break;
    if (fields.size() != column_names.size()) {
      return Status::ParseError(
          name + ": data row " + std::to_string(rows_read + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(column_names.size()));
    }
    apply_nulls(&fields);
    builder->AddRow(fields);
    ++rows_read;
  }
  if (!error.ok()) return error;

  if (builder == nullptr) {
    if (column_names.empty()) {
      return Status::ParseError("empty input");
    }
    storage.emplace(column_names, name);
    builder = &*storage;
  }
  return std::move(*builder).Build();
}

Result<Relation> ReferenceCsvReader::ReadFile(const std::string& path,
                                              const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("error reading " + path);
  return ReadString(buffer.str(), options, path);
}

}  // namespace muds
