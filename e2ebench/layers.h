#ifndef MUDS_E2EBENCH_LAYERS_H_
#define MUDS_E2EBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace e2e {

/// Span times of one traced pass, grouped by the repository's layers.
struct SpanTotals {
  /// Layer metric (e.g. "data.ingest_s") -> seconds of its spans that no
  /// other layer span on the same thread encloses. These add up without
  /// double counting, so wall time minus their sum is the unattributed rest.
  std::map<std::string, double> attributed;
  double attributed_total = 0;
  /// Span name -> durations (seconds) of every span with that name.
  std::map<std::string, std::vector<double>> durations;

  /// Summed seconds of every span named `name`.
  double Total(const std::string& name) const;
};

SpanTotals AttributeSpans(const std::vector<muds::TraceEvent>& events);

/// Value of `name` in a registry delta (0 when absent).
double Delta(const muds::MetricsSnapshot& delta, const std::string& name);

/// Sets the per-layer metrics every workload shares: layer times from
/// `spans`, work counters from the registry `delta` of the traced pass, and
/// unattributed_s = wall_s - (attributed span time + extra_attributed_s),
/// where extra_attributed_s is time the benchmark timed itself around a
/// layer call inside the wall (report serialization).
void AddLayerMetrics(const SpanTotals& spans,
                     const muds::MetricsSnapshot& delta, double wall_s,
                     double extra_attributed_s, Report* report);

}  // namespace e2e

#endif  // MUDS_E2EBENCH_LAYERS_H_
