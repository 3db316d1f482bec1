#include "data/relation.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace muds {

namespace {

// Sorts the distinct values of `raw` into a dictionary and rewrites the
// column as codes into it. Each value is hashed exactly once: the map
// assigns provisional first-seen ids during insertion, and a rank remap
// turns those into sorted-dictionary codes afterwards — only the distinct
// values are sorted, never the full column.
Column EncodeColumn(const std::vector<std::string>& raw) {
  std::unordered_map<std::string_view, int32_t> id_of;
  std::vector<std::string_view> distinct;  // First-seen order.
  std::vector<int32_t> provisional;
  provisional.reserve(raw.size());
  for (const std::string& value : raw) {
    const auto [it, inserted] = id_of.try_emplace(
        std::string_view(value), static_cast<int32_t>(distinct.size()));
    if (inserted) distinct.push_back(it->first);
    provisional.push_back(it->second);
  }

  std::vector<int32_t> by_rank(distinct.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&](int32_t a, int32_t b) {
    return distinct[static_cast<size_t>(a)] <
           distinct[static_cast<size_t>(b)];
  });
  std::vector<int32_t> rank(distinct.size());
  for (size_t i = 0; i < by_rank.size(); ++i) {
    rank[static_cast<size_t>(by_rank[i])] = static_cast<int32_t>(i);
  }

  Column column;
  column.dictionary.reserve(distinct.size());
  for (const int32_t id : by_rank) {
    column.dictionary.emplace_back(distinct[static_cast<size_t>(id)]);
  }
  column.codes.reserve(raw.size());
  for (const int32_t id : provisional) {
    column.codes.push_back(rank[static_cast<size_t>(id)]);
  }
  return column;
}

}  // namespace

Relation Relation::FromRows(std::vector<std::string> column_names,
                            const std::vector<std::vector<std::string>>& rows,
                            std::string name) {
  RelationBuilder builder(std::move(column_names), std::move(name));
  for (const auto& row : rows) builder.AddRow(row);
  return std::move(builder).Build();
}

Relation::Relation(std::string name, std::vector<std::string> column_names,
                   std::vector<Column> columns, RowId num_rows)
    : name_(std::move(name)),
      column_names_(std::move(column_names)),
      columns_(std::move(columns)),
      num_rows_(num_rows) {
  MUDS_CHECK(column_names_.size() == columns_.size());
  MUDS_CHECK(static_cast<int>(columns_.size()) <= ColumnSet::kMaxColumns);
  for (const Column& column : columns_) {
    MUDS_CHECK(static_cast<RowId>(column.codes.size()) == num_rows_);
  }
}

void Relation::AppendBatch(const Relation& batch, ThreadPool* pool) {
  MUDS_CHECK_MSG(batch.NumColumns() == NumColumns(),
                 "append batch arity does not match the schema");
  const RowId old_rows = num_rows_;
  const RowId batch_rows = batch.NumRows();
  MUDS_CHECK_MSG(static_cast<int64_t>(old_rows) + batch_rows <=
                     std::numeric_limits<RowId>::max(),
                 "append would overflow the row id space");

  const auto merge_column = [&](int64_t ci) {
    const size_t c = static_cast<size_t>(ci);
    Column& column = columns_[c];
    const Column& added = batch.columns_[c];

    // Merge the two sorted dictionaries, recording where each side's codes
    // land. Equal values collapse; batch-only values shift every later old
    // code up by the number of insertions before it.
    const size_t old_card = column.dictionary.size();
    const size_t added_card = added.dictionary.size();
    std::vector<std::string> merged;
    merged.reserve(old_card + added_card);
    std::vector<int32_t> remap_old(old_card);
    std::vector<int32_t> remap_added(added_card);
    size_t i = 0;
    size_t j = 0;
    while (i < old_card || j < added_card) {
      const int32_t code = static_cast<int32_t>(merged.size());
      const bool take_old =
          j == added_card ||
          (i < old_card && column.dictionary[i] <= added.dictionary[j]);
      if (take_old) {
        if (j < added_card && column.dictionary[i] == added.dictionary[j]) {
          remap_added[j] = code;
          ++j;
        }
        remap_old[i] = code;
        merged.push_back(std::move(column.dictionary[i]));
        ++i;
      } else {
        remap_added[j] = code;
        merged.push_back(added.dictionary[j]);
        ++j;
      }
    }
    // The merge shifted old codes only if it inserted new values.
    if (merged.size() != old_card) {
      for (int32_t& code : column.codes) {
        code = remap_old[static_cast<size_t>(code)];
      }
    }
    column.dictionary = std::move(merged);

    column.codes.reserve(static_cast<size_t>(old_rows) + added.codes.size());
    for (const int32_t code : added.codes) {
      column.codes.push_back(remap_added[static_cast<size_t>(code)]);
    }
  };
  ParallelForOrInline(pool, static_cast<int64_t>(columns_.size()),
                      merge_column);
  num_rows_ = old_rows + batch_rows;
}

ColumnSet Relation::ActiveColumns() const {
  ColumnSet active;
  for (int c = 0; c < NumColumns(); ++c) {
    if (!IsConstantColumn(c)) active.Add(c);
  }
  return active;
}

Relation Relation::SelectRows(const std::vector<RowId>& rows,
                              ThreadPool* pool) const {
  for (const RowId row : rows) {
    MUDS_CHECK(row >= 0 && row < num_rows_);
  }
  std::vector<Column> new_columns(columns_.size());
  const auto select_column = [&](int64_t c) {
    const Column& column = columns_[static_cast<size_t>(c)];
    Column& new_column = new_columns[static_cast<size_t>(c)];
    // One gather copies the old codes and marks the values still used.
    std::vector<char> used(column.dictionary.size(), 0);
    new_column.codes.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t code = column.codes[static_cast<size_t>(rows[i])];
      new_column.codes[i] = code;
      used[static_cast<size_t>(code)] = 1;
    }
    if (std::find(used.begin(), used.end(), 0) == used.end()) {
      new_column.dictionary = column.dictionary;
      return;
    }
    // The old dictionary is already sorted, so the surviving values keep
    // their relative order: remap old codes to their rank among the codes
    // that actually occur — no strings are materialized or re-hashed.
    std::vector<int32_t> remap(column.dictionary.size(), 0);
    for (size_t code = 0; code < used.size(); ++code) {
      if (!used[code]) continue;
      remap[code] = static_cast<int32_t>(new_column.dictionary.size());
      new_column.dictionary.push_back(column.dictionary[code]);
    }
    for (int32_t& code : new_column.codes) {
      code = remap[static_cast<size_t>(code)];
    }
  };
  ParallelForOrInline(pool, static_cast<int64_t>(columns_.size()),
                      select_column);
  return Relation(name_, column_names_, std::move(new_columns),
                  static_cast<RowId>(rows.size()));
}

Relation Relation::SelectColumns(const std::vector<int>& columns) const {
  std::vector<std::string> names;
  std::vector<Column> new_columns;
  names.reserve(columns.size());
  new_columns.reserve(columns.size());
  for (int c : columns) {
    MUDS_CHECK(c >= 0 && c < NumColumns());
    names.push_back(column_names_[static_cast<size_t>(c)]);
    new_columns.push_back(columns_[static_cast<size_t>(c)]);
  }
  return Relation(name_, std::move(names), std::move(new_columns), num_rows_);
}

std::vector<std::string> Relation::Row(RowId row) const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (int c = 0; c < NumColumns(); ++c) out.push_back(Value(row, c));
  return out;
}

RelationBuilder::RelationBuilder(std::vector<std::string> column_names,
                                 std::string name)
    : name_(std::move(name)), column_names_(std::move(column_names)) {
  MUDS_CHECK(static_cast<int>(column_names_.size()) <=
             ColumnSet::kMaxColumns);
  values_.resize(column_names_.size());
}

void RelationBuilder::AddRow(const std::vector<std::string>& values) {
  MUDS_CHECK_MSG(values.size() == values_.size(),
                 "row arity does not match the schema");
  for (size_t c = 0; c < values.size(); ++c) values_[c].push_back(values[c]);
}

Relation RelationBuilder::Build() && {
  const RowId num_rows = NumRows();
  std::vector<Column> columns;
  columns.reserve(values_.size());
  for (const auto& raw : values_) columns.push_back(EncodeColumn(raw));
  return Relation(std::move(name_), std::move(column_names_),
                  std::move(columns), num_rows);
}

}  // namespace muds
