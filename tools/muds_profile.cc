// muds_profile — command-line holistic data profiler.
//
// Usage:
//   muds_profile INPUT.csv [options]
//
// Options:
//   --algorithm=muds|hfun|baseline|auto   profiling strategy (default muds)
//   --separator=C                         CSV field separator (default ,)
//   --no-header                           first record is data, not names
//   --max-rows=N                          profile only the first N rows
//   --append=FILE                         grow INPUT.csv by FILE's rows
//                                         (same schema and dialect, so a
//                                         header when INPUT.csv has one)
//                                         and profile the grown relation
//                                         once; repeatable, batches apply
//                                         in order. Incompatible with
//                                         --null-unequal (its per-file NULL
//                                         sentinels would make the result
//                                         differ from profiling the
//                                         concatenated file)
//   --null-token=S                        cells equal to S are NULL
//   --null-unequal                        NULL != NULL semantics
//   --seed=N                              seed for randomized traversals
//   --threads=N                           worker threads (0 = all hardware
//                                         threads, default 1); results are
//                                         identical for every thread count
//   --pli-budget-mb=N                     PLI cache byte budget in MiB
//                                         (0 = unlimited, default 1024);
//                                         results are identical for every
//                                         budget
//   --spill-dir=DIR                       enable the out-of-core tier:
//                                         evicted PLIs spill to an unlinked
//                                         temp file in DIR instead of being
//                                         dropped, and SPIDER streams its
//                                         sorted runs from disk; results
//                                         are identical with spill on or
//                                         off
//   --spill-budget-mb=N                   cap each spill file at N MiB
//                                         (0 = unbounded, default 0); when
//                                         a file is full the engine falls
//                                         back to drop-and-rebuild
//   --sample-pairs=N                      sampling-first pre-validation:
//                                         sample N row pairs from the
//                                         single-column PLIs into an
//                                         evidence store and refute
//                                         UCC/FD candidates against it
//                                         before any PLI work (0 =
//                                         disabled, the default); results
//                                         are identical for every N
//   --sample-seed=N                       seed for the pair sampler
//                                         (default 1); results are
//                                         identical for every seed
//   --json                                machine-readable JSON output
//   --output=FILE                         write the report to FILE instead
//                                         of stdout
//   --quiet                               only dependency counts
//   --metrics                             include the metrics-registry
//                                         counters in the text report
//                                         (always present in --json)
//   --trace=FILE                          record a Chrome-tracing /
//                                         Perfetto JSON trace of the run
//   --stats                               per-column statistics table
//   --soft-fds[=T]                        CORDS-style soft FDs with
//                                         strength >= T (default 0.9)
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O or parse errors.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/profiler.h"
#include "core/report.h"
#include "data/statistics.h"
#include "fd/soft_fd.h"

namespace {

using namespace muds;

struct CliOptions {
  std::string input;
  std::vector<std::string> append_paths;
  ProfileOptions profile;
  bool json = false;
  bool quiet = false;
  bool metrics = false;
  bool stats = false;
  bool soft_fds = false;
  double soft_fd_strength = 0.9;
  std::string trace_path;
  std::string output_path;
};

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: muds_profile INPUT.csv [--algorithm=muds|hfun|baseline|auto]\n"
      "                    [--separator=C] [--no-header] [--max-rows=N]\n"
      "                    [--append=FILE ...]\n"
      "                    [--null-token=S] [--null-unequal] [--seed=N]\n"
      "                    [--threads=N]\n"
      "                    [--pli-budget-mb=N]\n"
      "                    [--spill-dir=DIR] [--spill-budget-mb=N]\n"
      "                    [--sample-pairs=N] [--sample-seed=N]\n"
      "                    [--json]\n"
      "                    [--output=FILE] [--quiet] [--metrics]\n"
      "                    [--trace=FILE] [--stats] [--soft-fds[=T]]\n");
}

// Strict numeric parsing, shared by every numeric flag: the whole value
// must be one base-10 number — no trailing garbage, no empty string, no
// overflow (ERANGE), and no sign for the unsigned variants.
bool ParseNonNegativeLl(const char* text, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseUint64Strict(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  // strtoull silently negates "-1"; reject any sign explicitly.
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
      text[0] == '+') {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseDoubleStrict(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      const std::string name = arg.substr(12);
      if (name == "muds") {
        options->profile.algorithm = Algorithm::kMuds;
      } else if (name == "hfun") {
        options->profile.algorithm = Algorithm::kHolisticFun;
      } else if (name == "baseline") {
        options->profile.algorithm = Algorithm::kBaseline;
      } else if (name == "auto") {
        options->profile.algorithm = Algorithm::kAuto;
      } else {
        std::fprintf(stderr, "unknown algorithm: %s\n", name.c_str());
        return false;
      }
    } else if (arg.rfind("--separator=", 0) == 0) {
      if (arg.size() != 13) {
        std::fprintf(stderr, "--separator expects one character\n");
        return false;
      }
      options->profile.csv.separator = arg[12];
    } else if (arg == "--no-header") {
      options->profile.csv.has_header = false;
    } else if (arg.rfind("--max-rows=", 0) == 0) {
      long long max_rows = 0;
      if (!ParseNonNegativeLl(arg.c_str() + 11, &max_rows)) {
        std::fprintf(stderr, "--max-rows expects a non-negative count\n");
        return false;
      }
      options->profile.csv.max_rows = max_rows;
    } else if (arg.rfind("--append=", 0) == 0) {
      const std::string path = arg.substr(9);
      if (path.empty()) {
        std::fprintf(stderr, "--append expects a file path\n");
        return false;
      }
      options->append_paths.push_back(path);
    } else if (arg.rfind("--null-token=", 0) == 0) {
      options->profile.csv.null_token = arg.substr(13);
    } else if (arg == "--null-unequal") {
      options->profile.csv.nulls = NullSemantics::kNullUnequal;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseUint64Strict(arg.c_str() + 7, &options->profile.seed)) {
        std::fprintf(stderr, "--seed expects a non-negative integer\n");
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      long long threads = 0;
      if (!ParseNonNegativeLl(arg.c_str() + 10, &threads) ||
          threads > INT32_MAX) {
        std::fprintf(stderr, "--threads expects a non-negative count\n");
        return false;
      }
      options->profile.num_threads = static_cast<int>(threads);
    } else if (arg.rfind("--pli-budget-mb=", 0) == 0) {
      long long mb = 0;
      if (!ParseNonNegativeLl(arg.c_str() + 16, &mb) ||
          mb > (1LL << 40)) {
        std::fprintf(stderr,
                     "--pli-budget-mb expects a non-negative MiB count\n");
        return false;
      }
      options->profile.pli_budget_bytes =
          static_cast<size_t>(mb) << 20;  // 0 = unlimited.
    } else if (arg.rfind("--spill-dir=", 0) == 0) {
      options->profile.spill.dir = arg.substr(12);
      if (options->profile.spill.dir.empty()) {
        std::fprintf(stderr, "--spill-dir expects a directory path\n");
        return false;
      }
    } else if (arg.rfind("--spill-budget-mb=", 0) == 0) {
      long long mb = 0;
      if (!ParseNonNegativeLl(arg.c_str() + 18, &mb) ||
          mb > (1LL << 40)) {
        std::fprintf(stderr,
                     "--spill-budget-mb expects a non-negative MiB count\n");
        return false;
      }
      options->profile.spill.budget_bytes =
          static_cast<size_t>(mb) << 20;  // 0 = unbounded.
    } else if (arg.rfind("--sample-pairs=", 0) == 0) {
      long long pairs = 0;
      if (!ParseNonNegativeLl(arg.c_str() + 15, &pairs)) {
        std::fprintf(stderr,
                     "--sample-pairs expects a non-negative count\n");
        return false;
      }
      options->profile.sampling.pairs = pairs;
    } else if (arg.rfind("--sample-seed=", 0) == 0) {
      if (!ParseUint64Strict(arg.c_str() + 14,
                             &options->profile.sampling.seed)) {
        std::fprintf(stderr, "--sample-seed expects a non-negative integer\n");
        return false;
      }
    } else if (arg == "--json") {
      options->json = true;
    } else if (arg.rfind("--output=", 0) == 0) {
      options->output_path = arg.substr(9);
      if (options->output_path.empty()) {
        std::fprintf(stderr, "--output expects a file path\n");
        return false;
      }
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "--metrics") {
      options->metrics = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options->trace_path = arg.substr(8);
      if (options->trace_path.empty()) {
        std::fprintf(stderr, "--trace expects a file path\n");
        return false;
      }
    } else if (arg == "--stats") {
      options->stats = true;
    } else if (arg == "--soft-fds") {
      options->soft_fds = true;
    } else if (arg.rfind("--soft-fds=", 0) == 0) {
      options->soft_fds = true;
      if (!ParseDoubleStrict(arg.c_str() + 11,
                             &options->soft_fd_strength) ||
          !(options->soft_fd_strength >= 0.0 &&
            options->soft_fd_strength <= 1.0)) {
        std::fprintf(stderr, "--soft-fds expects a threshold in [0, 1]\n");
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else if (options->input.empty()) {
      options->input = arg;
    } else {
      std::fprintf(stderr, "multiple input files given\n");
      return false;
    }
  }
  if (options->input.empty()) {
    std::fprintf(stderr, "missing input file\n");
    return false;
  }
  return true;
}

// Degraded configurations the library counts instead of printing: one
// warning line for each counter that is non-zero in the run's metrics.
void PrintWarnings(const MetricsSnapshot& snapshot) {
  static constexpr struct {
    const char* counter;
    const char* message;
  } kWarnings[] = {
      {"pli_cache.pinned_over_budget",
       "pinned single-column PLIs hold more than the PLI budget; eviction "
       "cannot reach the budget (raise --pli-budget-mb)"},
      {"pli_cache.spill_unavailable",
       "the spill file could not be created; the PLI cache ran without a "
       "spill tier"},
      {"spider.spill_fallbacks",
       "SPIDER could not spill its sorted runs and fell back to the "
       "in-memory merge"},
  };
  for (const auto& warning : kWarnings) {
    if (metrics::ValueOf(snapshot, warning.counter) > 0) {
      std::fprintf(stderr, "muds: warning: %s\n", warning.message);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage(stderr);
    return 1;
  }
  if (!options.trace_path.empty()) TraceCollector::Global().Start();
  Result<ProfilingResult> result = ProfileCsvFileWithAppends(
      options.input, options.append_paths, options.profile);
  if (!options.trace_path.empty()) {
    TraceCollector& collector = TraceCollector::Global();
    collector.Stop();
    const Status written = collector.WriteChromeTrace(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  PrintWarnings(result.value().metrics);
  const std::string report =
      options.json
          ? ProfilingResultToJson(result.value())
          : ProfilingResultToText(result.value(), options.quiet,
                                  options.metrics);
  if (options.output_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(options.output_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot create %s\n",
                   options.output_path.c_str());
      return 2;
    }
    out << report;
    if (!out) {
      std::fprintf(stderr, "error: error writing %s\n",
                   options.output_path.c_str());
      return 2;
    }
  }

  if (options.stats || options.soft_fds) {
    // Re-read once for the supplementary analyses (they operate on the
    // relation, not on the dependency sets). Replay any --append batches so
    // the statistics describe the same grown relation that was profiled.
    Result<Relation> relation =
        CsvReader::ReadFile(options.input, options.profile.csv);
    if (!relation.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   relation.status().ToString().c_str());
      return 2;
    }
    for (const std::string& path : options.append_paths) {
      Result<Relation> batch = CsvReader::ReadFile(path, options.profile.csv);
      if (!batch.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     batch.status().ToString().c_str());
        return 2;
      }
      relation.value().AppendBatch(batch.value());
    }
    if (options.stats) {
      std::printf("\ncolumn statistics:\n%s",
                  FormatStatistics(ComputeStatistics(relation.value()))
                      .c_str());
    }
    if (options.soft_fds) {
      Cords::Options cords;
      cords.min_strength = options.soft_fd_strength;
      cords.seed = options.profile.seed;
      std::printf("\nsoft FDs (CORDS, strength >= %.2f):\n",
                  cords.min_strength);
      for (const SoftFd& fd : Cords::Discover(relation.value(), cords)) {
        std::printf("  %s\n",
                    ToString(fd, relation.value().ColumnNames()).c_str());
      }
    }
  }
  return 0;
}
