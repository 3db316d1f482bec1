#ifndef MUDS_DATA_RELATION_H_
#define MUDS_DATA_RELATION_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/check.h"
#include "setops/column_set.h"

namespace muds {

/// Row index type. Relations are in-memory; 32 bits cover the paper's
/// largest evaluated instances.
using RowId = int32_t;

/// std::allocator whose value-initialization (resize, the count
/// constructor) leaves the element uninitialized: a code vector that is
/// written in full right after it grows (the ingest parse and merge) pays
/// no zero-fill.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  // Construction with arguments falls back to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A column's codes, one per row.
using CodeVector = std::vector<int32_t, UninitializedAllocator<int32_t>>;

/// A single dictionary-encoded column.
///
/// `dictionary` holds the distinct values sorted ascending, so a code also
/// encodes the value's rank: SPIDER reads its duplicate-free sorted value
/// list straight from the dictionary (the "PLIs map values to positions"
/// sharing described in §3), and PLI construction groups equal codes.
struct Column {
  std::vector<std::string> dictionary;
  CodeVector codes;  // codes[row] indexes into dictionary.

  /// Number of distinct values.
  int64_t Cardinality() const {
    return static_cast<int64_t>(dictionary.size());
  }
};

class ThreadPool;

/// An in-memory relation instance: a schema plus dictionary-encoded
/// columns. This is the single shared input of all profiling algorithms —
/// the data is read (and encoded) once, as the holistic approach prescribes.
/// Immutable except for AppendBatch, which grows a base by appended row
/// batches before the one profile; every other operation returns a new
/// relation.
class Relation {
 public:
  /// Builds a relation from rows of strings. Every row must have exactly
  /// `column_names.size()` fields (checked).
  static Relation FromRows(std::vector<std::string> column_names,
                           const std::vector<std::vector<std::string>>& rows,
                           std::string name = "relation");

  Relation(std::string name, std::vector<std::string> column_names,
           std::vector<Column> columns, RowId num_rows);

  const std::string& name() const { return name_; }
  RowId NumRows() const { return num_rows_; }
  int NumColumns() const { return static_cast<int>(columns_.size()); }

  const std::string& ColumnName(int column) const {
    return column_names_[static_cast<size_t>(column)];
  }
  const std::vector<std::string>& ColumnNames() const { return column_names_; }

  const Column& GetColumn(int column) const {
    return columns_[static_cast<size_t>(column)];
  }

  /// Dictionary code of the cell (row, column).
  int32_t Code(RowId row, int column) const {
    return columns_[static_cast<size_t>(column)]
        .codes[static_cast<size_t>(row)];
  }

  /// String value of the cell (row, column).
  const std::string& Value(RowId row, int column) const {
    const Column& col = columns_[static_cast<size_t>(column)];
    return col.dictionary[static_cast<size_t>(
        col.codes[static_cast<size_t>(row)])];
  }

  /// Number of distinct values in `column`.
  int64_t Cardinality(int column) const {
    return columns_[static_cast<size_t>(column)].Cardinality();
  }

  /// True if `column` has at most one distinct value over the instance.
  bool IsConstantColumn(int column) const { return Cardinality(column) <= 1; }

  /// Columns with at least two distinct values — the columns that can take
  /// part in minimal UCCs and in minimal FD left-hand sides.
  ColumnSet ActiveColumns() const;

  /// Appends every row of `batch` to this relation in place, merging the
  /// sorted dictionaries per column (codes stay equal to value ranks, so
  /// SPIDER keeps reading sorted duplicate-free value lists). Old codes are
  /// rewritten only in columns whose dictionary grew. The result equals
  /// FromRows of the concatenated rows. `batch` must have the same column
  /// count and minimal dictionaries (every dictionary value occurs in some
  /// batch row — CsvReader and SelectRows both guarantee this); otherwise
  /// the merged dictionary would report phantom values to the value-based
  /// IND discovery. Columns are processed in parallel when `pool` has more
  /// than one thread; the result is identical for every thread count.
  void AppendBatch(const Relation& batch, ThreadPool* pool = nullptr);

  /// New relation keeping exactly the rows in `rows` (in the given order).
  /// Dictionaries stay duplicate-free and minimal: each column is gathered
  /// once, and its codes are rewritten only when a value dropped out.
  /// Columns are processed in parallel when `pool` has more than one
  /// thread; the result is identical for every thread count.
  Relation SelectRows(const std::vector<RowId>& rows,
                      ThreadPool* pool = nullptr) const;

  /// New relation keeping exactly the columns in `columns` (in the given
  /// order). Used by the scalability experiments ("first k columns").
  Relation SelectColumns(const std::vector<int>& columns) const;

  /// Materializes a row as strings (for output and tests).
  std::vector<std::string> Row(RowId row) const;

 private:
  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<Column> columns_;
  RowId num_rows_;
};

/// Accumulates string rows and produces a dictionary-encoded Relation.
class RelationBuilder {
 public:
  explicit RelationBuilder(std::vector<std::string> column_names,
                           std::string name = "relation");

  /// Appends one row; `values.size()` must equal the column count (checked).
  void AddRow(const std::vector<std::string>& values);

  int NumColumns() const { return static_cast<int>(values_.size()); }
  RowId NumRows() const {
    return values_.empty() ? 0 : static_cast<RowId>(values_[0].size());
  }

  /// Encodes and returns the relation. The builder is consumed.
  Relation Build() &&;

 private:
  std::string name_;
  std::vector<std::string> column_names_;
  // values_[column][row]: collected by column for cache-friendly encoding.
  std::vector<std::vector<std::string>> values_;
};

}  // namespace muds

#endif  // MUDS_DATA_RELATION_H_
