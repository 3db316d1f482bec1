#include "core/report.h"

#include <cstdio>

#include "common/build_info.h"
#include "common/json.h"

namespace muds {

namespace {

std::string ColumnList(const ColumnSet& set,
                       const std::vector<std::string>& names) {
  std::string out = "[";
  bool first = true;
  for (int c = set.First(); c >= 0; c = set.NextAtLeast(c + 1)) {
    if (!first) out += ',';
    out += JsonQuote(names[static_cast<size_t>(c)]);
    first = false;
  }
  out += ']';
  return out;
}

void AppendMetricsSection(const ProfilingResult& result, std::string* out) {
  *out += "\nmetrics:\n";
  char line[256];
  for (const auto& [metric, value] : result.metrics) {
    std::snprintf(line, sizeof(line), "  %-32s %12lld\n", metric.c_str(),
                  static_cast<long long>(value));
    *out += line;
  }
}

}  // namespace

std::string JsonQuote(const std::string& value) { return json::Quote(value); }

std::string ProfilingResultToJson(const ProfilingResult& result) {
  const auto& names = result.column_names;
  std::string out = "{\n  \"algorithm\": ";
  out += JsonQuote(AlgorithmName(result.algorithm_used));
  const BuildInfo build = GetBuildInfo();
  out += ",\n  \"build\": {\"git\": " + JsonQuote(build.git) +
         ", \"compiler\": " + JsonQuote(build.compiler) +
         ", \"simd\": " + JsonQuote(build.simd) + "}";
  out += ",\n  \"columns\": [";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonQuote(names[i]);
  }
  out += "],\n  \"duplicates_removed\": " +
         std::to_string(result.duplicates_removed);
  out += ",\n  \"num_threads_used\": " +
         std::to_string(result.num_threads_used);
  out += ",\n  \"inds\": [";
  for (size_t i = 0; i < result.inds.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    {\"dependent\": ";
    out += JsonQuote(names[static_cast<size_t>(result.inds[i].dependent)]);
    out += ", \"referenced\": ";
    out += JsonQuote(names[static_cast<size_t>(result.inds[i].referenced)]);
    out += "}";
  }
  out += "\n  ],\n  \"uccs\": [";
  for (size_t i = 0; i < result.uccs.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    " + ColumnList(result.uccs[i], names);
  }
  out += "\n  ],\n  \"fds\": [";
  for (size_t i = 0; i < result.fds.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    {\"lhs\": " + ColumnList(result.fds[i].lhs, names);
    out += ", \"rhs\": ";
    out += JsonQuote(names[static_cast<size_t>(result.fds[i].rhs)]);
    out += "}";
  }
  out += "\n  ],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [metric, value] : result.metrics) {
    if (!first) out += ',';
    out += "\n    " + JsonQuote(metric) + ": " + std::to_string(value);
    first = false;
  }
  out += "\n  },\n  \"timings_us\": {";
  first = true;
  for (const auto& [phase, micros] : result.timings.entries()) {
    if (!first) out += ',';
    out += "\n    " + JsonQuote(phase) + ": " + std::to_string(micros);
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string ProfilingResultToText(const ProfilingResult& result,
                                  bool summary_only, bool show_metrics) {
  const auto& names = result.column_names;
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "algorithm: %s\n",
                AlgorithmName(result.algorithm_used));
  out += line;
  std::snprintf(line, sizeof(line),
                "columns:   %zu, duplicates removed: %lld\n", names.size(),
                static_cast<long long>(result.duplicates_removed));
  out += line;
  std::snprintf(line, sizeof(line),
                "found %zu INDs, %zu minimal UCCs, %zu minimal FDs in "
                "%.3fs\n",
                result.inds.size(), result.uccs.size(), result.fds.size(),
                result.TotalSeconds());
  out += line;
  if (summary_only) {
    if (show_metrics) AppendMetricsSection(result, &out);
    return out;
  }

  out += "\nunary inclusion dependencies:\n";
  for (const Ind& ind : result.inds) {
    out += "  " + ToString(ind, names) + "\n";
  }
  out += "\nminimal unique column combinations:\n";
  for (const ColumnSet& ucc : result.uccs) {
    out += "  " + ucc.ToString(names) + "\n";
  }
  out += "\nminimal functional dependencies:\n";
  for (const Fd& fd : result.fds) {
    out += "  " + ToString(fd, names) + "\n";
  }
  out += "\nphases:\n";
  for (const auto& [phase, micros] : result.timings.entries()) {
    std::snprintf(line, sizeof(line), "  %-24s %10.3f ms\n", phase.c_str(),
                  static_cast<double>(micros) / 1e3);
    out += line;
  }
  if (show_metrics) AppendMetricsSection(result, &out);
  return out;
}

}  // namespace muds
