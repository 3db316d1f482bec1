// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//   e2ebench --define
//
// Runs one workload (long_narrow, wide_fd_rich or serve_mixed; see
// e2ebench/README.md), checks every result against the expected sets
// recorded in tables.cc, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones of an extra traced pass. --define recomputes the expected sets with
// the reference oracle and prints them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "tables.h"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" and "per_layer" lists.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.ingest_s", "s"},
    {"data.ingest.parse_s", "s"},
    {"data.ingest.encode_s", "s"},
    {"data.ingest.merge_s", "s"},
    {"data.ingest.bytes", "bytes"},
    {"data.dedup_s", "s"},
    {"data.dedup.duplicate_rows", "count"},
    {"pli.single_column_build_s", "s"},
    {"pli.intersects", "count"},
    {"pli.cache_hit_ratio", "ratio"},
    {"pli.bytes_cached", "bytes"},
    {"ind.spider_s", "s"},
    {"ind.value_groups", "count"},
    {"ucc.ducc_s", "s"},
    {"ucc.uniqueness_checks", "count"},
    {"ucc.walk_steps", "count"},
    {"core.minimize_fds_s", "s"},
    {"core.calculate_rz_s", "s"},
    {"core.generate_shadowed_s", "s"},
    {"core.minimize_shadowed_s", "s"},
    {"core.exhaustive_completion_s", "s"},
    {"core.fd_checks", "count"},
    {"core.completion.nodes_visited", "count"},
    {"core.connector_lookups", "count"},
    {"core.report_serialize_s", "s"},
    {"core.incremental_append_s", "s"},
    {"core.incremental.revalidated", "count"},
    {"core.incremental.explored_nodes", "count"},
    {"fd.tane_s", "s"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p90", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.catalog_hit_ratio", "ratio"},
    {"serve.catalog_coalesced", "count"},
    {"serve.jobs_rejected", "count"},
    {"serve.latency_cold_p50_ms", "ms"},
    {"serve.latency_hit_p50_ms", "ms"},
    {"serve.latency_append_p50_ms", "ms"},
    {"serve.burst_jobs_per_s", "jobs/s"},
    {"common.pool_task_wait_ms", "ms"},
    {"bench.send_lag_p90_ms", "ms"},
    {"bench.latency_samples", "count"},
    {"failed_ratio", "ratio"},
    {"unattributed_s", "s"},
    {"trace_overhead_ratio", "ratio"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload long_narrow|wide_fd_rich|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--out-dir D]\n"
               "       e2ebench --define\n",
               message);
  return 2;
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--define") return DefineExpectations();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "long_narrow") run = RunLongNarrow;
  if (args.workload == "wide_fd_rich") run = RunWideFdRich;
  if (args.workload == "serve_mixed") run = RunServeMixed;
  if (run == nullptr) return Usage("unknown --workload");
  std::filesystem::create_directories(args.out_dir);

  Report report;
  run(args, &report);
  report.metrics["failed_ratio"] =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<int64_t>(report.attempted, 1));

  // Human-readable table, then the full metric set next to the trace.
  std::string all = "{";
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-34s %16.6f\n", name.c_str(), value);
    if (all.size() > 1) all += ",";
    all += "\n  " + muds::json::Quote(name) + ": " + Number(value);
  }
  const std::string results_path = args.out_dir + "/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   "-trace" + (args.trace ? "1" : "0") +
                                   ".json";
  if (std::FILE* file = std::fopen(results_path.c_str(), "w")) {
    std::fprintf(file, "%s\n}\n", all.c_str());
    std::fclose(file);
  }

  std::string metrics;
  for (const MetricSpec& spec : args.trace ? kPerLayer : kEndToEnd) {
    double value = report.metrics[spec.name];
    if (!std::isfinite(value)) {
      report.Fail(std::string(spec.name) + " is not finite");
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += muds::json::Quote(spec.name) + ": {\"value\": " +
               Number(value) + ", \"unit\": " + muds::json::Quote(spec.unit) +
               "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
