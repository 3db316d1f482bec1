#ifndef MUDS_E2EBENCH_TABLES_H_
#define MUDS_E2EBENCH_TABLES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/profiler.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace e2e {

/// The three dependency sets of one profile.
struct ResultSets {
  std::vector<muds::Ind> inds;
  std::vector<muds::ColumnSet> uccs;
  std::vector<muds::Fd> fds;
};

/// Set sizes plus a 64-bit digest of the canonical IND/UCC/FD listing: two
/// profiles agree exactly when their summaries do (up to hash collisions).
struct Summary {
  int64_t inds = 0;
  int64_t uccs = 0;
  int64_t fds = 0;
  uint64_t digest = 0;

  friend bool operator==(const Summary&, const Summary&) = default;
  std::string ToString() const;
};

Summary Summarize(ResultSets sets);
Summary Summarize(const muds::ProfilingResult& result);

/// Reads the sets back out of a ProfilingResultToJson document, mapping
/// column names to positions through its "columns" array.
muds::Result<Summary> SummarizeReport(const muds::json::Value& report);
muds::Result<Summary> SummarizeReportJson(std::string_view report);

/// The expected summary of a fixed table, recorded when the benchmark was
/// defined (e2ebench --define recomputes and cross-checks every entry).
const Summary& Expected(const std::string& table);

// ---- Inputs, built with the in-tree workload generators and xoshiro Rng.

/// long_narrow: 1M rows x 8 uniform categorical columns with cardinalities
/// {6,4,8,3,5,7,2,9} (values v0, v1, ...), drawn from `seed` with the
/// xoshiro Rng straight into CSV text — the bench_out_of_core --write-csv
/// shape. Its result sets do not depend on the seed: 28 INDs (value sets
/// nest by cardinality), the single minimal UCC of all eight columns, and
/// no FD.
std::string LongNarrowCsv(uint64_t seed);

/// wide_fd_rich: the `hepatitis` profile of UciProfiles() (20 columns x 155
/// rows), generated once with a fixed seed. Runs permute its rows.
muds::Relation WideFdRichTable();

/// serve_mixed: 4,000 x 10 categorical tables (cardinality 16) for cold
/// and hit jobs, and tables of the same shape whose rows are split into a
/// base plus appended batches.
std::vector<muds::Relation> ServeColdTables();
std::vector<muds::Relation> ServeAppendTables();

/// A table's CSV text as a header line and one line per row (no newlines),
/// so a run can emit seeded row permutations — new bytes, same result sets.
struct CsvLines {
  std::string header;
  std::vector<std::string> rows;

  static CsvLines From(const muds::Relation& relation);

  /// Rows order[begin, end) as CSV text, with the header line when asked.
  std::string Join(const std::vector<uint32_t>& order, size_t begin,
                   size_t end, bool with_header) const;
};

/// A uniformly random permutation of 0..n-1 (Fisher-Yates on `rng`).
std::vector<uint32_t> Permutation(size_t n, muds::Rng* rng);

/// Recomputes every expected summary with the reference oracle, checks
/// MUDS, TANE and the append path against it, and prints the table that
/// Expected() holds. Returns the process exit code.
int DefineExpectations();

}  // namespace e2e

#endif  // MUDS_E2EBENCH_TABLES_H_
