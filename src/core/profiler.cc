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
#include "pli/pli_cache.h"
#include "ucc/ducc.h"

namespace muds {

namespace {

void MergeTimings(const PhaseTimings& from, PhaseTimings* into) {
  for (const auto& [name, micros] : from.entries()) into->Add(name, micros);
}

// §6.5 / §8: decide between MUDS and Holistic FUN for Algorithm::kAuto.
// The UCC-shape policy pays one DUCC run for the decision; §6.4 shows that
// cost is negligible next to FD discovery.
Algorithm ChooseAutomatically(const Relation& relation,
                              const ProfileOptions& options,
                              PhaseTimings* timings) {
  const ColumnSet active = relation.ActiveColumns();
  if (options.auto_policy == AutoPolicy::kColumnCount) {
    return active.Count() >= options.auto_column_threshold
               ? Algorithm::kMuds
               : Algorithm::kHolisticFun;
  }
  std::vector<ColumnSet> uccs;
  {
    MUDS_TRACE_SPAN(timings, "autoSelect");
    ThreadPool pool(options.num_threads);
    PliCache cache(relation, options.pli_budget_bytes, &pool,
                   options.pli_impl, options.spill);
    Ducc::Options ducc_options;
    ducc_options.seed = options.seed;
    uccs = Ducc::Discover(relation, &cache, ducc_options);
  }

  int64_t total_size = 0;
  ColumnSet z;
  for (const ColumnSet& ucc : uccs) {
    total_size += ucc.Count();
    z = z.Union(ucc);
  }
  if (uccs.empty()) return Algorithm::kHolisticFun;
  const double mean_size =
      static_cast<double>(total_size) / static_cast<double>(uccs.size());
  // "Many, large UCCs": composite keys on average, covering most columns.
  const bool many_large =
      mean_size >= 2.0 && 2 * z.Count() >= active.Count();
  return many_large ? Algorithm::kMuds : Algorithm::kHolisticFun;
}

ProfilingResult RunOnDeduped(const Relation& relation,
                             const ProfileOptions& options) {
  if (options.algorithm == Algorithm::kAuto) {
    PhaseTimings selection_timings;
    ProfileOptions chosen = options;
    chosen.algorithm =
        ChooseAutomatically(relation, options, &selection_timings);
    ProfilingResult result = RunOnDeduped(relation, chosen);
    MergeTimings(selection_timings, &result.timings);
    return result;
  }

  ProfilingResult result;
  result.column_names = relation.ColumnNames();
  result.algorithm_used = options.algorithm;
  MudsResult run;
  switch (options.algorithm) {
    case Algorithm::kMuds:
      run = Muds::Run(relation, options);
      break;
    case Algorithm::kHolisticFun:
      run = HolisticFun::Run(relation, options);
      break;
    case Algorithm::kBaseline:
      run = Baseline::Run(relation, options);
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

}  // namespace

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
  const MetricsScope scope;

  // A relation without duplicates is profiled in place, not copied.
  PhaseTimings dedup_timings;
  std::optional<Relation> deduped;
  int64_t duplicates_removed = 0;
  int num_threads_used = 1;
  {
    MUDS_TRACE_SPAN(&dedup_timings, "dedup");
    ThreadPool pool(options.num_threads);
    num_threads_used = pool.NumThreads();
    const std::vector<RowId> distinct = DistinctRowIds(relation, &pool);
    duplicates_removed = static_cast<int64_t>(relation.NumRows()) -
                         static_cast<int64_t>(distinct.size());
    if (duplicates_removed > 0) {
      deduped.emplace(relation.SelectRows(distinct, &pool));
    }
  }

  ProfilingResult result =
      RunOnDeduped(deduped ? *deduped : relation, options);
  MergeTimings(dedup_timings, &result.timings);
  result.duplicates_removed = duplicates_removed;
  result.num_threads_used = num_threads_used;
  result.metrics = scope.run()->Snapshot();
  return result;
}

CsvOptions CsvOptionsForLoad(const ProfileOptions& options) {
  CsvOptions csv = options.csv;
  if (csv.num_threads == 1) csv.num_threads = options.num_threads;
  return csv;
}

namespace {

// The body of every CSV entry point: `load` parses the input, which grows
// in place by each of the `num_batches` batches `load_batch(i, csv)`
// parses, and the grown relation is profiled once. AppendBatch builds
// exactly the relation a parse of the concatenated input gives, and
// ProfileRelation deduplicates, so the result is the concatenation's
// profile, duplicates_removed included. `check_names` is for batches that
// carry a header.
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
  const CsvOptions csv = CsvOptionsForLoad(options);
  for (const int threads : {options.num_threads, csv.num_threads}) {
    if (threads < 0) {
      return Status::InvalidArgument("num_threads must be >= 0, got " +
                                     std::to_string(threads));
    }
  }
  // The baseline runs three independent tools, each reading the input
  // itself; the holistic algorithms read once (§3: shared I/O).
  const int num_reads = options.algorithm == Algorithm::kBaseline ? 3 : 1;
  // ProfileRelation's run nests in this one, so the result's metrics hold
  // the ingest.* counters as well as the discovery work.
  const MetricsScope scope;
  ThreadPool pool(num_batches > 0 ? csv.num_threads : 1);  // Column merges.
  int64_t load_micros = 0;
  std::optional<Relation> relation;
  for (int i = 0; i < num_reads; ++i) {
    MUDS_TRACE_SPAN("load");
    Timer load_timer;
    Result<Relation> parsed = load(csv);
    if (!parsed.ok()) return parsed.status();
    relation.emplace(std::move(parsed).value());
    for (size_t b = 0; b < num_batches; ++b) {
      Result<Relation> batch = load_batch(b, csv);
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

  ProfilingResult result = ProfileRelation(*relation, options);
  result.timings.Add("load", load_micros);
  result.metrics = scope.run()->Snapshot();
  return result;
}

}  // namespace

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
      [base](const CsvOptions& csv) {
        return CsvReader::ReadString(base, csv);
      },
      appends.size(),
      [&appends](size_t i, const CsvOptions& csv) -> Result<Relation> {
        const std::string name = "append" + std::to_string(i + 1);
        // Only line breaks: no records, so no rows and no columns.
        if (appends[i].find_first_not_of("\r\n") == std::string::npos) {
          return Relation(name, {}, {}, 0);
        }
        CsvOptions batch_csv = csv;
        batch_csv.has_header = false;
        return CsvReader::ReadString(appends[i], batch_csv, name);
      },
      /*check_names=*/false, options);
}

Result<ProfilingResult> ProfileCsvFileWithAppends(
    const std::string& path, const std::vector<std::string>& append_paths,
    const ProfileOptions& options) {
  return ProfileCsv(
      [&path](const CsvOptions& csv) { return CsvReader::ReadFile(path, csv); },
      append_paths.size(),
      [&append_paths](size_t i, const CsvOptions& csv) {
        return CsvReader::ReadFile(append_paths[i], csv);
      },
      /*check_names=*/true, options);
}

}  // namespace muds
