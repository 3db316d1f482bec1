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
  switch (options.algorithm) {
    case Algorithm::kMuds: {
      MudsResult muds = Muds::Run(relation, options);
      result.inds = std::move(muds.inds);
      result.uccs = std::move(muds.uccs);
      result.fds = std::move(muds.fds);
      MergeTimings(muds.timings, &result.timings);
      result.counters = {
          {"fd_checks", muds.stats.fd_checks_minimize +
                            muds.stats.fd_checks_rz +
                            muds.stats.fd_checks_shadowed},
          {"fd_checks_minimize", muds.stats.fd_checks_minimize},
          {"fd_checks_rz", muds.stats.fd_checks_rz},
          {"fd_checks_shadowed", muds.stats.fd_checks_shadowed},
          {"pli_intersects", muds.stats.pli_intersects},
          {"pli_cache_hits", muds.stats.pli_cache_hits},
          {"pli_cache_misses", muds.stats.pli_cache_misses},
          {"pli_cache_evictions", muds.stats.pli_cache_evictions},
          {"pli_cache_bytes", muds.stats.pli_cache_bytes},
          {"pli_cache_pinned_bytes", muds.stats.pli_cache_pinned_bytes},
          {"pli_cache_spill_writes", muds.stats.pli_cache_spill_writes},
          {"pli_cache_spill_reloads", muds.stats.pli_cache_spill_reloads},
          {"pli_cache_spill_bytes", muds.stats.pli_cache_spill_bytes},
          {"connector_lookups", muds.stats.connector_lookups},
          {"shadowed_tasks", muds.stats.shadowed_tasks},
          {"shadowed_rounds", muds.stats.shadowed_rounds},
          {"ducc_uniqueness_checks", muds.stats.ducc.uniqueness_checks},
          {"num_threads", muds.stats.num_threads_used},
          {"parallel_tasks", muds.stats.parallel_tasks},
          {"sampling_pairs", muds.stats.sampling_pairs},
          {"sampling_refuted", muds.stats.sampling_refuted},
          {"sampling_fed_back", muds.stats.sampling_fed_back},
          {"sampling_probe_ns", muds.stats.sampling_probe_ns},
      };
      break;
    }
    case Algorithm::kHolisticFun:
    case Algorithm::kBaseline: {
      HolisticResult holistic =
          options.algorithm == Algorithm::kHolisticFun
              ? HolisticFun::Run(relation, options)
              : Baseline::Run(relation, options);
      result.inds = std::move(holistic.inds);
      result.uccs = std::move(holistic.uccs);
      result.fds = std::move(holistic.fds);
      MergeTimings(holistic.timings, &result.timings);
      result.counters = {
          {"fd_checks", holistic.fd_checks},
          {"pli_intersects", holistic.pli_intersects},
          {"pli_cache_hits", holistic.pli_cache_hits},
          {"pli_cache_misses", holistic.pli_cache_misses},
          {"pli_cache_evictions", holistic.pli_cache_evictions},
          {"pli_cache_spill_writes", holistic.pli_cache_spill_writes},
          {"pli_cache_spill_reloads", holistic.pli_cache_spill_reloads},
          {"num_threads", holistic.num_threads_used},
          {"sampling_pairs", holistic.sampling_pairs},
          {"sampling_refuted", holistic.sampling_refuted},
          {"sampling_fed_back", holistic.sampling_fed_back},
          {"sampling_probe_ns", holistic.sampling_probe_ns},
      };
      break;
    }
    case Algorithm::kAuto:
      MUDS_CHECK_MSG(false, "kAuto is resolved before dispatch");
      break;
  }
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
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  // A relation without duplicates is profiled in place, not copied.
  PhaseTimings dedup_timings;
  std::optional<Relation> deduped;
  int64_t duplicates_removed = 0;
  {
    MUDS_TRACE_SPAN(&dedup_timings, "dedup");
    ThreadPool pool(options.num_threads);
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
  result.metrics = MetricsRegistry::Delta(
      before, MetricsRegistry::Global().Snapshot());
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
  // The baseline runs three independent tools, each reading the input
  // itself; the holistic algorithms read once (§3: shared I/O).
  const int num_reads = options.algorithm == Algorithm::kBaseline ? 3 : 1;
  // ProfileRelation snapshots the metrics registry around the discovery
  // phases only; widen the delta here so ingest.* counters are included.
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const CsvOptions csv = CsvOptionsForLoad(options);
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
  result.metrics = MetricsRegistry::Delta(
      before, MetricsRegistry::Global().Snapshot());
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
