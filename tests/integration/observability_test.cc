// End-to-end checks of the observability layer at the library level: one
// profiling run produces (a) run-scoped metrics naming every instrumented
// subsystem, exact even while other runs share the process, and (b) a
// loadable Chrome trace whose span aggregation matches the phase timings
// that shipped with the result.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/profiler.h"
#include "core/report.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

std::string TestCsv() {
  return CsvWriter::ToString(
      MakeCategorical(200, {12, 12, 8, 8, 4, 4}, /*seed=*/7, "obs_test"));
}

std::map<std::string, int64_t> AsMap(const MetricsSnapshot& snapshot) {
  return {snapshot.begin(), snapshot.end()};
}

TEST(ObservabilityTest, ProfilingResultCarriesSubsystemMetrics) {
  ProfileOptions options;
  options.num_threads = 2;
  Result<ProfilingResult> result = ProfileCsvString(TestCsv(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::map<std::string, int64_t> metrics =
      AsMap(result.value().metrics);
  // One representative metric per instrumented subsystem.
  for (const char* name :
       {"pli_cache.hits", "pli_cache.misses", "pli_cache.bytes_cached",
        "thread_pool.tasks_executed", "spider.cursor_advances",
        "ducc.uniqueness_checks", "ducc.refuted_by_cardinality",
        "muds.fd_checks", "muds.fd_probe.scans", "muds.fd_probe.refuted",
        "muds.rz.nodes_visited", "muds.completion.nodes_visited",
        "muds.refines_all.batches"}) {
    EXPECT_TRUE(metrics.count(name) > 0) << "missing metric: " << name;
  }
  // The run did real work through the registry.
  EXPECT_GT(metrics.at("muds.fd_checks"), 0);
  EXPECT_GT(metrics.at("ducc.uniqueness_checks"), 0);
}

TEST(ObservabilityTest, ConcurrentRunsReportTheirSoloMetrics) {
  // Two different inputs, profiled alone and then at the same time: each
  // run's metrics are its own work only, so they match its solo run.
  const std::vector<std::string> inputs = {
      CsvWriter::ToString(MakeUniprotLike(3000, 8, /*seed=*/1)),
      CsvWriter::ToString(MakeNcvoterLike(3000, 12, /*seed=*/2))};
  ProfileOptions options;
  options.num_threads = 1;
  const auto profile = [&options](const std::string& csv) {
    Result<ProfilingResult> result = ProfileCsvString(csv, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value().metrics : MetricsSnapshot();
  };
  std::vector<MetricsSnapshot> solo;
  for (const std::string& csv : inputs) solo.push_back(profile(csv));

  std::vector<MetricsSnapshot> concurrent(inputs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < inputs.size(); ++i) {
    threads.emplace_back([&, i] { concurrent[i] = profile(inputs[i]); });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_GT(metrics::ValueOf(solo[i], "muds.fd_checks"), 0) << i;
    EXPECT_EQ(ScheduleFreeMetrics(concurrent[i]), ScheduleFreeMetrics(solo[i]))
        << "input " << i;
  }
}

TEST(ObservabilityTest, JsonReportAlwaysIncludesMetrics) {
  Result<ProfilingResult> result = ProfileCsvString(TestCsv());
  ASSERT_TRUE(result.ok());
  Result<json::Value> parsed =
      json::Parse(ProfilingResultToJson(result.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->IsObject());
  EXPECT_GT(metrics->object.count("pli_cache.hits"), 0u);
}

TEST(ObservabilityTest, TextReportShowsMetricsOnlyOnRequest) {
  Result<ProfilingResult> result = ProfileCsvString(TestCsv());
  ASSERT_TRUE(result.ok());
  const std::string plain = ProfilingResultToText(result.value());
  EXPECT_EQ(plain.find("\nmetrics:\n"), std::string::npos);
  const std::string with_metrics = ProfilingResultToText(
      result.value(), /*summary_only=*/false, /*show_metrics=*/true);
  EXPECT_NE(with_metrics.find("\nmetrics:\n"), std::string::npos);
  EXPECT_NE(with_metrics.find("pli_cache.hits"), std::string::npos);
}

TEST(ObservabilityTest, TraceOfParallelRunLoadsAndBalances) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Start();
  ProfileOptions options;
  options.num_threads = 2;
  Result<ProfilingResult> result = ProfileCsvString(TestCsv(), options);
  collector.Stop();
  ASSERT_TRUE(result.ok());

  Result<json::Value> parsed = json::Parse(collector.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::map<int64_t, std::vector<std::string>> stacks;
  size_t spans = 0;
  for (const json::Value& event : events->array) {
    const std::string& ph = event.Find("ph")->string;
    if (ph == "M") continue;
    const int64_t tid = static_cast<int64_t>(event.Find("tid")->number);
    const std::string& name = event.Find("name")->string;
    if (ph == "B") {
      ++spans;
      stacks[tid].push_back(name);
    } else {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) EXPECT_TRUE(stack.empty());
  EXPECT_GT(spans, 0u);

  // The trace names the paper's phases.
  const PhaseTimings view = PhaseTimingsFromTrace(collector.Events());
  EXPECT_GT(view.Micros("load"), 0);
  EXPECT_GE(view.Micros("minimizeFDs"), 0);
}

TEST(ObservabilityTest, TraceViewMatchesResultTimingsForSequentialRun) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Start();
  Result<ProfilingResult> result = ProfileCsvString(TestCsv());
  collector.Stop();
  ASSERT_TRUE(result.ok());

  const PhaseTimings view = PhaseTimingsFromTrace(collector.Events());
  // Every phase the result reports is present in the trace-derived view.
  // (The trace clock and the span-local stopwatch are both steady_clock,
  // but read at slightly different instants, so compare with slack.)
  for (const auto& [phase, micros] : result.value().timings.entries()) {
    const int64_t traced = view.Micros(phase);
    EXPECT_GE(traced + 1000, micros) << "phase " << phase;
  }
}

}  // namespace
}  // namespace muds
