#ifndef MUDS_CORE_PROFILER_H_
#define MUDS_CORE_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/engine_config.h"
#include "data/csv.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

class ThreadPool;

/// Which profiling strategy ProfileRelation() runs (§6 compares all three).
enum class Algorithm {
  /// MUDS (§5): the holistic, inter-task-pruning algorithm.
  kMuds,
  /// Holistic FUN (§3.2): shared load + FUN returning its UCC byproduct.
  kHolisticFun,
  /// Sequential SPIDER, DUCC, FUN with no sharing (the paper's baseline;
  /// the CSV entry points parse the input once per task to model the
  /// unshared reads).
  kBaseline,
  /// The paper's closing recommendation (§6.5, §8): MUDS for relations
  /// with at least kAutoColumnThreshold active columns, Holistic FUN
  /// otherwise ("making the decision based on the number of columns is
  /// easier and similarly precise").
  kAuto,
};

/// Active-column count from which Algorithm::kAuto picks MUDS ("Muds
/// usually performs best on datasets with ten or more columns", §6.5).
inline constexpr int kAutoColumnThreshold = 10;

const char* AlgorithmName(Algorithm algorithm);

/// Options for the Profile* entry points: the engine settings every
/// algorithm takes (EngineConfig), plus which algorithm runs, on how many
/// threads, and how its input is read. MUDS' algorithm ablations
/// (MudsOptions) are reachable only through Muds::Run.
struct ProfileOptions : EngineConfig {
  Algorithm algorithm = Algorithm::kMuds;
  /// Threads of the run's one pool (0 = hardware concurrency, 1 = the
  /// deterministic sequential path). The run owner builds the pool once;
  /// ingest, append merges, dedup and the engine all run on it. The
  /// discovered IND/UCC/FD sets are identical for every thread count.
  int num_threads = 1;
  /// CSV dialect for the CSV entry points (its num_threads is ignored: the
  /// parse runs on the run's pool).
  CsvOptions csv;
};

/// The holistic profiling answer: all three metadata types for one
/// relation, plus per-phase timings and the run's metrics.
struct ProfilingResult {
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;

  /// Wall-clock per phase, in first-execution order; phase names follow the
  /// paper ("SPIDER", "DUCC", "minimizeFDs", ...; plus "load" and "dedup").
  PhaseTimings timings;

  /// The run's metrics (RunMetrics::Snapshot, common/metrics.h): every
  /// registered counter and gauge, sorted by name, even at zero, counting
  /// this run's work only — not that of runs beside it in the process.
  MetricsSnapshot metrics;

  /// Threads the run used: ProfileOptions::num_threads resolved, so 0
  /// shows up as the hardware concurrency.
  int num_threads_used = 1;

  /// Duplicate rows dropped by preprocessing (§3).
  int64_t duplicates_removed = 0;

  /// The algorithm that actually ran (differs from the requested one only
  /// for Algorithm::kAuto).
  Algorithm algorithm_used = Algorithm::kMuds;

  /// Column names of the profiled relation, for rendering the output.
  std::vector<std::string> column_names;

  /// Convenience: total runtime over all phases, in seconds.
  double TotalSeconds() const {
    return static_cast<double>(timings.TotalMicros()) / 1e6;
  }
};

/// Profiles an already-loaded relation. Rows are deduplicated first (§3).
ProfilingResult ProfileRelation(const Relation& relation,
                                const ProfileOptions& options = {});

/// The engine step of a run: resolves kAuto, then runs the chosen engine on
/// `relation`, which must be free of duplicate rows, on the run owner's
/// `pool` (null = inline on the caller). Fills the three sets, timings,
/// algorithm_used and column_names; the owner fills the rest.
ProfilingResult ProfileDeduplicated(const Relation& relation,
                                    const ProfileOptions& options,
                                    ThreadPool* pool);

/// Parses CSV text and profiles it. For the baseline algorithm the text is
/// parsed once per profiling task (three times), reproducing the unshared
/// I/O cost the holistic algorithms eliminate.
Result<ProfilingResult> ProfileCsvString(std::string_view text,
                                         const ProfileOptions& options = {});

/// Reads a CSV file and profiles it (same baseline re-read semantics).
Result<ProfilingResult> ProfileCsvFile(const std::string& path,
                                       const ProfileOptions& options = {});

/// The one-shot append path muds_serve runs: parses `base` and each of
/// `appends` (headerless row batches in the base's dialect), grows the base
/// by the batches with Relation::AppendBatch and profiles once. The result
/// is ProfileCsvString of the concatenation base + appends[0] + ...; a blob
/// of only line breaks adds no rows. Rejects kNullUnequal with appends
/// (per-file NULL sentinels break that equivalence) and batches whose
/// column count differs from the base.
Result<ProfilingResult> ProfileCsvStringWithAppends(
    std::string_view base, const std::vector<std::string>& appends,
    const ProfileOptions& options = {});

/// The same for files, as muds_profile --append runs it: batches are in the
/// full dialect, so a header must repeat the base's column names.
Result<ProfilingResult> ProfileCsvFileWithAppends(
    const std::string& path, const std::vector<std::string>& append_paths,
    const ProfileOptions& options = {});

}  // namespace muds

#endif  // MUDS_CORE_PROFILER_H_
