#include "layers.h"

#include <algorithm>

namespace e2e {

namespace {

// Span name -> the layer metric its time is attributed to. Spans not listed
// (traversal tasks, serveJob/serveProfile, ...) are containers or worker
// detail; their time stays in the enclosing layer or in unattributed_s.
const std::map<std::string, std::string>& LayerOfSpan() {
  static const std::map<std::string, std::string> kLayers = {
      {"load", "data.ingest_s"},
      {"ingest.scan", "data.ingest_s"},
      {"ingest.parse", "data.ingest_s"},
      {"ingest.encode", "data.ingest_s"},
      {"ingest.merge", "data.ingest_s"},
      {"dedup", "data.dedup_s"},
      // MUDS builds the single-column PLIs on the caller while SPIDER runs
      // on a worker, so this span covers both.
      {"SPIDER", "ind.spider_s"},
      {"DUCC", "ucc.ducc_s"},
      {"minimizeFDs", "core.minimize_fds_s"},
      {"calculateRZ", "core.calculate_rz_s"},
      {"generateShadowedTasks", "core.generate_shadowed_s"},
      {"minimizeShadowedTasks", "core.minimize_shadowed_s"},
      {"exhaustiveCompletion", "core.exhaustive_completion_s"},
      {"incrementalAppend", "core.incremental_append_s"},
      {"incrementalInds", "core.incremental_append_s"},
      {"incrementalDetect", "core.incremental_append_s"},
      {"incrementalUccs", "core.incremental_append_s"},
      {"incrementalFds", "core.incremental_append_s"},
      {"pliCacheOnAppend", "core.incremental_append_s"},
  };
  return kLayers;
}

}  // namespace

double SpanTotals::Total(const std::string& name) const {
  const auto it = durations.find(name);
  if (it == durations.end()) return 0;
  double total = 0;
  for (double seconds : it->second) total += seconds;
  return total;
}

SpanTotals AttributeSpans(const std::vector<muds::TraceEvent>& events) {
  const auto& layers = LayerOfSpan();
  SpanTotals totals;
  for (const auto& entry : layers) totals.attributed[entry.second] = 0;

  // Events() is ordered per thread in nesting order (begin ascending, end
  // descending), so a stack of open spans gives each span's ancestors.
  struct Open {
    int64_t end_us;
    bool is_layer;
  };
  std::vector<Open> stack;
  int layers_open = 0;
  uint32_t tid = 0;
  for (const muds::TraceEvent& event : events) {
    if (event.tid != tid) {
      stack.clear();
      layers_open = 0;
      tid = event.tid;
    }
    while (!stack.empty() && stack.back().end_us < event.end_us) {
      layers_open -= stack.back().is_layer ? 1 : 0;
      stack.pop_back();
    }
    const double seconds =
        static_cast<double>(event.end_us - event.begin_us) / 1e6;
    totals.durations[event.name].push_back(seconds);
    const auto layer = layers.find(event.name);
    const bool is_layer = layer != layers.end();
    if (is_layer && layers_open == 0) {
      totals.attributed[layer->second] += seconds;
      totals.attributed_total += seconds;
    }
    stack.push_back({event.end_us, is_layer});
    layers_open += is_layer ? 1 : 0;
  }
  return totals;
}

double Delta(const muds::MetricsSnapshot& delta, const std::string& name) {
  const auto it = std::lower_bound(
      delta.begin(), delta.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  return it != delta.end() && it->first == name
             ? static_cast<double>(it->second)
             : 0.0;
}

void AddLayerMetrics(const SpanTotals& spans,
                     const muds::MetricsSnapshot& delta, double wall_s,
                     double extra_attributed_s, Report* report) {
  auto& m = report->metrics;
  for (const auto& [layer, seconds] : spans.attributed) m[layer] = seconds;
  m["data.ingest.parse_s"] = spans.Total("ingest.parse");
  m["data.ingest.encode_s"] = spans.Total("ingest.encode");
  m["data.ingest.merge_s"] = spans.Total("ingest.merge");
  m["data.ingest.bytes"] = Delta(delta, "ingest.bytes");

  const double hits = Delta(delta, "pli_cache.hits");
  const double lookups = hits + Delta(delta, "pli_cache.misses");
  m["pli.intersects"] = Delta(delta, "pli_cache.intersects");
  m["pli.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  m["pli.bytes_cached"] = Delta(delta, "pli_cache.bytes_cached");

  m["ind.value_groups"] = Delta(delta, "spider.value_groups");
  m["ucc.uniqueness_checks"] = Delta(delta, "ducc.uniqueness_checks");
  m["ucc.walk_steps"] = Delta(delta, "ducc.walk_steps");
  m["core.fd_checks"] = Delta(delta, "muds.fd_checks");
  m["core.completion.nodes_visited"] =
      Delta(delta, "muds.completion.nodes_visited");
  m["core.connector_lookups"] = Delta(delta, "muds.connector_lookups");
  m["core.incremental.revalidated"] = Delta(delta, "incremental.revalidated");
  m["core.incremental.explored_nodes"] =
      Delta(delta, "incremental.explored_nodes");
  m["common.pool_task_wait_ms"] = Delta(delta, "thread_pool.task_wait_us") / 1e3;
  m["unattributed_s"] = wall_s - spans.attributed_total - extra_attributed_s;
}

}  // namespace e2e
