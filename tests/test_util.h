#ifndef MUDS_TESTS_TEST_UTIL_H_
#define MUDS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "data/relation.h"

namespace muds {

/// Random categorical relation for differential tests: `cols` columns whose
/// cardinalities are drawn from [1, max_cardinality] (cardinality 1 yields
/// constant columns, exercising the ∅-lhs path).
inline Relation RandomRelation(uint64_t seed, int cols, int rows,
                               int max_cardinality) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> data;
  std::vector<std::string> names;
  std::vector<int> cardinalities;
  for (int c = 0; c < cols; ++c) {
    names.push_back("c" + std::to_string(c));
    cardinalities.push_back(
        1 + static_cast<int>(rng.NextBelow(
                static_cast<uint64_t>(max_cardinality))));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back("v" + std::to_string(rng.NextBelow(static_cast<uint64_t>(
                              cardinalities[static_cast<size_t>(c)]))));
    }
    data.push_back(std::move(row));
  }
  return Relation::FromRows(names, data, "random");
}

/// The value `scope`'s run holds for the registry metric `name` (0 if the
/// metric is not registered).
inline int64_t ScopeValue(const MetricsScope& scope, std::string_view name) {
  return metrics::ValueOf(scope.run()->Snapshot(), name);
}

/// The part of a run's metrics that does not depend on scheduling, so it
/// must read the same whether the run was alone in the process or next to
/// others: every instrument except the clock-valued
/// thread_pool.task_wait_us, sampling.probe_ns and ingest.parse_ns and the
/// Set-only gauge thread_pool.queue_depth. Zero entries are dropped,
/// because a name registered between two runs is missing from the earlier
/// snapshot.
inline std::map<std::string, int64_t> ScheduleFreeMetrics(
    const MetricsSnapshot& snapshot) {
  std::map<std::string, int64_t> kept;
  for (const auto& [name, value] : snapshot) {
    if (value == 0 || name == "thread_pool.task_wait_us" ||
        name == "sampling.probe_ns" || name == "ingest.parse_ns" ||
        name == "thread_pool.queue_depth") {
      continue;
    }
    kept.emplace(name, value);
  }
  return kept;
}

}  // namespace muds

#endif  // MUDS_TESTS_TEST_UTIL_H_
