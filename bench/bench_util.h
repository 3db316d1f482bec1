#ifndef MUDS_BENCH_BENCH_UTIL_H_
#define MUDS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/json.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/profiler.h"
#include "data/csv.h"
#include "data/relation.h"

namespace muds {
namespace bench {

/// Common command-line arguments for the bench binaries.
///
///   --full         paper-scale parameters (default: scaled down so the
///                  whole bench suite finishes in minutes)
///   --seed=N       generator / traversal seed
///   --threads=N    worker threads (0 = hardware concurrency)
struct BenchArgs {
  bool full = false;
  uint64_t seed = 1;
  int threads = 1;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      args.threads = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    }
  }
  return args;
}

/// Runs one profiling algorithm end to end — including the (re-)parsing of
/// the CSV text, which is where the baseline pays its unshared I/O — and
/// returns the result.
inline ProfilingResult RunAlgorithm(const std::string& csv_text,
                                    Algorithm algorithm, uint64_t seed,
                                    int threads = 1) {
  ProfileOptions options;
  options.algorithm = algorithm;
  options.seed = seed;
  options.num_threads = threads;
  Result<ProfilingResult> result = ProfileCsvString(csv_text, options);
  return std::move(result).value();
}

/// Runs `fn` and returns its wall time in milliseconds.
template <typename F>
double WallMs(F&& fn) {
  const Timer timer;
  fn();
  return static_cast<double>(timer.ElapsedMicros()) / 1e3;
}

/// What the benches ran on — emitted into every BENCH_*.json so gate
/// baselines (tools/bench_gate) are attributable to a machine and SIMD
/// level when comparing runs.
struct MachineInfo {
  std::string cpu = "unknown";
  /// The compile-time SIMD level of this binary (the runtime kill switch
  /// simd::ForceScalar only affects individual measurements, which encode
  /// it in their row names).
  const char* simd = simd::LevelName(simd::kCompiledLevel);
  unsigned hardware_threads = 0;
};

inline MachineInfo DetectMachine() {
  MachineInfo info;
  info.hardware_threads = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        info.cpu = line.substr(start);
      }
      break;
    }
  }
  return info;
}

/// Accumulates measurement rows and writes one machine-readable
/// BENCH_<bench>.json into the working directory when Write() is called (or
/// at destruction), so the perf trajectory is trackable across commits:
///
///   {"bench": "fig6_rows",
///    "build": {"git": "0abc123", "compiler": "gcc ...", "simd": "avx2"},
///    "machine": {"cpu": "...", "simd": "avx2", "hardware_threads": 8},
///    "results": [
///     {"name": "muds/rows=10000", "wall_ms": 12.3, "threads": 1,
///      "counters": {"speedup_x100": 456, ...},
///      "metrics": {"muds.fd_checks": 789, ...}}, ...]}
///
/// "counters" are the bench's own derived figures (ratios, sizes; what the
/// floors in bench/baselines/ gate). The "metrics" object is the run's
/// registry metrics (ProfilingResult::metrics); rows added without a
/// metrics snapshot emit an empty object.
class JsonResultWriter {
 public:
  explicit JsonResultWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonResultWriter(const JsonResultWriter&) = delete;
  JsonResultWriter& operator=(const JsonResultWriter&) = delete;

  ~JsonResultWriter() { Write(); }

  void Add(const std::string& name, double wall_ms, int threads,
           const std::vector<std::pair<std::string, int64_t>>& counters,
           const std::vector<std::pair<std::string, int64_t>>& metrics = {}) {
    std::string row = "    {\"name\": \"" + name + "\"";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", wall_ms);
    row += ", \"wall_ms\": ";
    row += buffer;
    std::snprintf(buffer, sizeof(buffer), "%d", threads);
    row += ", \"threads\": ";
    row += buffer;
    const auto append_map =
        [&row, &buffer](
            const char* key,
            const std::vector<std::pair<std::string, int64_t>>& entries) {
          row += ", \"";
          row += key;
          row += "\": {";
          bool first = true;
          for (const auto& [entry, value] : entries) {
            if (!first) row += ", ";
            first = false;
            std::snprintf(buffer, sizeof(buffer), "%lld",
                          static_cast<long long>(value));
            row += "\"" + entry + "\": " + buffer;
          }
          row += '}';
        };
    append_map("counters", counters);
    append_map("metrics", metrics);
    row += '}';
    rows_.push_back(std::move(row));
  }

  /// Convenience: one row straight from a profiling result, registry
  /// metrics included. `wall_ms` is the caller's wall time around the
  /// profile call (see WallMs), not the sum of the phase timers, which
  /// counts overlapping parallel phases twice.
  void Add(const std::string& name, double wall_ms,
           const ProfilingResult& result) {
    Add(name, wall_ms, result.num_threads_used, {}, result.metrics);
  }

  void Write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    const MachineInfo machine = DetectMachine();
    const BuildInfo build = GetBuildInfo();
    std::fprintf(out,
                 "{\"bench\": \"%s\",\n"
                 " \"build\": {\"git\": %s, \"compiler\": %s, "
                 "\"simd\": \"%s\"},\n"
                 " \"machine\": {\"cpu\": %s, \"simd\": \"%s\", "
                 "\"hardware_threads\": %u},\n"
                 " \"results\": [\n",
                 bench_name_.c_str(), json::Quote(build.git).c_str(),
                 json::Quote(build.compiler).c_str(), build.simd,
                 json::Quote(machine.cpu).c_str(), machine.simd,
                 machine.hardware_threads);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
  }

 private:
  std::string bench_name_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

/// Serializes a generated relation once; all algorithms profile the same
/// text.
inline std::string ToCsv(const Relation& relation) {
  return CsvWriter::ToString(relation);
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
}  // namespace muds

#endif  // MUDS_BENCH_BENCH_UTIL_H_
