#ifndef MUDS_CORE_REPORT_H_
#define MUDS_CORE_REPORT_H_

#include <string>

#include "core/profiler.h"

namespace muds {

/// Serializes a profiling result as JSON: algorithm, column names, the
/// thread count used, dependencies (with column *names*, not indices),
/// per-phase timings, and the run's registry metrics ("metrics" object,
/// always present).
/// Stable field order; safe escaping for arbitrary cell/column content.
std::string ProfilingResultToJson(const ProfilingResult& result);

/// Renders the human-readable report the CLI prints: header counts plus —
/// unless `summary_only` — every dependency and the phase timings.
/// `show_metrics` appends the run's registry metrics (CLI --metrics).
std::string ProfilingResultToText(const ProfilingResult& result,
                                  bool summary_only = false,
                                  bool show_metrics = false);

/// Escapes a string for embedding in JSON (quotes included).
std::string JsonQuote(const std::string& value);

}  // namespace muds

#endif  // MUDS_CORE_REPORT_H_
