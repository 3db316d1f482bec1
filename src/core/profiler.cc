#include "core/profiler.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/holistic_fun.h"
#include "core/muds.h"
#include "data/preprocess.h"

namespace muds {

namespace {

void MergeTimings(const PhaseTimings& from, PhaseTimings* into) {
  for (const auto& [name, micros] : from.entries()) into->Add(name, micros);
}

// ProfileRelation on the caller's pool: deduplicate, then profile. Its run
// nests in the caller's, if any.
ProfilingResult ProfileOnPool(const Relation& relation,
                              const ProfileOptions& options, ThreadPool* pool) {
  const MetricsScope scope;

  // A relation without duplicates is profiled in place, not copied.
  PhaseTimings dedup_timings;
  std::optional<Relation> deduped;
  int64_t duplicates_removed = 0;
  {
    MUDS_TRACE_SPAN(&dedup_timings, "dedup");
    const std::vector<RowId> distinct = DistinctRowIds(relation, pool);
    duplicates_removed = static_cast<int64_t>(relation.NumRows()) -
                         static_cast<int64_t>(distinct.size());
    if (duplicates_removed > 0) {
      deduped.emplace(relation.SelectRows(distinct, pool));
    }
  }

  ProfilingResult result =
      ProfileDeduplicated(deduped ? *deduped : relation, options, pool);
  MergeTimings(dedup_timings, &result.timings);
  result.duplicates_removed = duplicates_removed;
  result.num_threads_used = pool->NumThreads();
  result.metrics = scope.run()->Snapshot();
  return result;
}

// The body of every CSV entry point: `load` parses the input, which grows
// in place by each of the `num_batches` batches `load_batch(i, csv, pool)`
// parses, and the grown relation is profiled once. AppendBatch builds
// exactly the relation a parse of the concatenated input gives, and
// ProfileOnPool deduplicates, so the result is the concatenation's
// profile, duplicates_removed included. `check_names` is for batches that
// carry a header. The run's one pool parses, merges, deduplicates and
// profiles.
template <typename Load, typename LoadBatch>
Result<ProfilingResult> ProfileCsv(const Load& load, size_t num_batches,
                                   const LoadBatch& load_batch,
                                   bool check_names,
                                   const ProfileOptions& options) {
  if (num_batches > 0 && options.csv.nulls == NullSemantics::kNullUnequal) {
    // kNullUnequal rewrites each NULL into a per-file unique sentinel, so
    // batches parsed on their own cannot reproduce a parse of the
    // concatenated input. Refuse instead of silently diverging.
    return Status::InvalidArgument(
        "append batches cannot be combined with NULL != NULL semantics");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(options.num_threads));
  }
  // The baseline runs three independent tools, each reading the input
  // itself; the holistic algorithms read once (§3: shared I/O).
  const int num_reads = options.algorithm == Algorithm::kBaseline ? 3 : 1;
  // ProfileOnPool's run nests in this one, so the result's metrics hold
  // the ingest.* counters as well as the discovery work.
  const MetricsScope scope;
  ThreadPool pool(options.num_threads);
  int64_t load_micros = 0;
  std::optional<Relation> relation;
  for (int i = 0; i < num_reads; ++i) {
    MUDS_TRACE_SPAN("load");
    Timer load_timer;
    Result<Relation> parsed = load(options.csv, &pool);
    if (!parsed.ok()) return parsed.status();
    relation.emplace(std::move(parsed).value());
    for (size_t b = 0; b < num_batches; ++b) {
      Result<Relation> batch = load_batch(b, options.csv, &pool);
      if (!batch.ok()) return batch.status();
      const int columns = batch.value().NumColumns();
      if (columns == 0) continue;  // No records: nothing to append.
      if (columns != relation->NumColumns()) {
        return Status::InvalidArgument(
            "append batch " + std::to_string(b + 1) + " has " +
            std::to_string(columns) + " columns, base has " +
            std::to_string(relation->NumColumns()));
      }
      if (check_names &&
          batch.value().ColumnNames() != relation->ColumnNames()) {
        return Status::InvalidArgument(
            "append batch schema does not match the relation's column names");
      }
      relation->AppendBatch(batch.value(), &pool);
    }
    load_micros += load_timer.ElapsedMicros();
  }

  ProfilingResult result = ProfileOnPool(*relation, options, &pool);
  result.timings.Add("load", load_micros);
  result.metrics = scope.run()->Snapshot();
  return result;
}

}  // namespace

ProfilingResult ProfileDeduplicated(const Relation& relation,
                                    const ProfileOptions& options,
                                    ThreadPool* pool) {
  if (options.algorithm == Algorithm::kAuto) {
    ProfileOptions chosen = options;
    chosen.algorithm =
        relation.ActiveColumns().Count() >= kAutoColumnThreshold
            ? Algorithm::kMuds
            : Algorithm::kHolisticFun;
    return ProfileDeduplicated(relation, chosen, pool);
  }

  ProfilingResult result;
  result.column_names = relation.ColumnNames();
  result.algorithm_used = options.algorithm;
  MudsResult run;
  switch (options.algorithm) {
    case Algorithm::kMuds:
      run = Muds::Run(relation, options, {}, pool);
      break;
    case Algorithm::kHolisticFun:
      run = HolisticFun::Run(relation, options, pool);
      break;
    case Algorithm::kBaseline:
      run = Baseline::Run(relation, options, pool);
      break;
    case Algorithm::kAuto:
      MUDS_CHECK_MSG(false, "kAuto is resolved before dispatch");
      break;
  }
  result.inds = std::move(run.inds);
  result.uccs = std::move(run.uccs);
  result.fds = std::move(run.fds);
  MergeTimings(run.timings, &result.timings);
  return result;
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMuds:
      return "MUDS";
    case Algorithm::kHolisticFun:
      return "HFUN";
    case Algorithm::kBaseline:
      return "baseline";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

ProfilingResult ProfileRelation(const Relation& relation,
                                const ProfileOptions& options) {
  ThreadPool pool(options.num_threads);
  return ProfileOnPool(relation, options, &pool);
}

Result<ProfilingResult> ProfileCsvString(std::string_view text,
                                         const ProfileOptions& options) {
  return ProfileCsvStringWithAppends(text, {}, options);
}

Result<ProfilingResult> ProfileCsvFile(const std::string& path,
                                       const ProfileOptions& options) {
  return ProfileCsvFileWithAppends(path, {}, options);
}

Result<ProfilingResult> ProfileCsvStringWithAppends(
    std::string_view base, const std::vector<std::string>& appends,
    const ProfileOptions& options) {
  return ProfileCsv(
      [base](const CsvOptions& csv, ThreadPool* pool) {
        return CsvReader::ReadString(base, csv, "relation", pool);
      },
      appends.size(),
      [&appends](size_t i, const CsvOptions& csv,
                 ThreadPool* pool) -> Result<Relation> {
        const std::string name = "append" + std::to_string(i + 1);
        // Only line breaks: no records, so no rows and no columns.
        if (appends[i].find_first_not_of("\r\n") == std::string::npos) {
          return Relation(name, {}, {}, 0);
        }
        CsvOptions batch_csv = csv;
        batch_csv.has_header = false;
        return CsvReader::ReadString(appends[i], batch_csv, name, pool);
      },
      /*check_names=*/false, options);
}

Result<ProfilingResult> ProfileCsvFileWithAppends(
    const std::string& path, const std::vector<std::string>& append_paths,
    const ProfileOptions& options) {
  return ProfileCsv(
      [&path](const CsvOptions& csv, ThreadPool* pool) {
        return CsvReader::ReadFile(path, csv, pool);
      },
      append_paths.size(),
      [&append_paths](size_t i, const CsvOptions& csv, ThreadPool* pool) {
        return CsvReader::ReadFile(append_paths[i], csv, pool);
      },
      /*check_names=*/true, options);
}

}  // namespace muds
