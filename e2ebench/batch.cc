// The batch workloads: one process profiles a CSV file end to end — file to
// rendered JSON report — through ProfileCsvFile + ProfilingResultToJson,
// MUDS at 4 threads, in a closed loop (the next profile starts when the
// previous report is rendered).

#include <cstdio>
#include <functional>
#include <string>

#include "bench.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/profiler.h"
#include "core/report.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "fd/tane.h"
#include "layers.h"
#include "pli/position_list_index.h"
#include "tables.h"

namespace e2e {

namespace {

constexpr int kThreads = 4;

muds::ProfileOptions Options() {
  muds::ProfileOptions options;
  options.algorithm = muds::Algorithm::kMuds;
  options.num_threads = kThreads;
  return options;
}

// Set-up is repeated and its median reported, so that work moved into or
// out of set-up shows: at least kMinSetups times, and more (a sub-ms set-up
// needs many samples for a steady median) while under budget.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 201;
constexpr double kSetupBudgetSeconds = 1.0;

double TimedSetups(const std::function<void()>& setup) {
  std::vector<double> seconds;
  const double start = Now();
  while (static_cast<int>(seconds.size()) < kMinSetups ||
         (static_cast<int>(seconds.size()) < kMaxSetups &&
          Now() - start < kSetupBudgetSeconds)) {
    const double t0 = Now();
    setup();
    seconds.push_back(Now() - t0);
  }
  return Percentile(seconds, 0.5);
}

void CheckReport(const std::string& table, const std::string& json,
                 Report* report) {
  const muds::Result<Summary> got = SummarizeReportJson(json);
  if (!got.ok()) {
    report->Fail(table + ": unreadable report: " + got.status().ToString());
  } else if (!(got.value() == Expected(table))) {
    report->Fail(table + ": report has " + got.value().ToString() +
                 ", expected " + Expected(table).ToString());
  }
}

// Writes `csv` to `path`; the file is the workload's input.
void WriteFile(const std::string& path, const std::string& csv) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  MUDS_CHECK_MSG(file != nullptr, "cannot create the input file");
  const size_t written = std::fwrite(csv.data(), 1, csv.size(), file);
  MUDS_CHECK_MSG(std::fclose(file) == 0 && written == csv.size(),
                 "cannot write the input file");
}

// The traced pass: one more profile with the TraceCollector on, its spans
// and registry delta turned into the per-layer metrics, plus the
// benchmark's own timers around single-column PLI builds and (on
// wide_fd_rich) TANE over the same deduplicated relation.
void TracedPass(const Args& args, const std::string& table,
                const std::string& path, double untraced_median_s,
                Report* report) {
  const muds::MetricsSnapshot before =
      muds::MetricsRegistry::Global().Snapshot();
  muds::TraceCollector& tracer = muds::TraceCollector::Global();
  tracer.Start();
  const double t0 = Now();
  muds::Result<muds::ProfilingResult> result =
      muds::ProfileCsvFile(path, Options());
  const double t_serialize = Now();
  const std::string json =
      result.ok() ? muds::ProfilingResultToJson(result.value()) : "";
  const double t1 = Now();
  tracer.Stop();
  const muds::MetricsSnapshot delta = muds::MetricsRegistry::Delta(
      before, muds::MetricsRegistry::Global().Snapshot());
  ++report->attempted;
  if (!result.ok()) {
    report->Fail(table + " (traced): " + result.status().ToString());
    return;
  }
  CheckReport(table, json, report);

  const std::string trace_path = args.out_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  const muds::Status written = tracer.WriteChromeTrace(trace_path);
  if (!written.ok()) report->Fail("trace: " + written.ToString());

  const double wall = t1 - t0;
  const double serialize = t1 - t_serialize;
  AddLayerMetrics(AttributeSpans(tracer.Events()), delta, wall, serialize,
                  report);
  report->metrics["core.report_serialize_s"] = serialize;
  report->metrics["data.dedup.duplicate_rows"] =
      static_cast<double>(result.value().duplicates_removed);
  report->metrics["trace_overhead_ratio"] = wall / untraced_median_s;

  muds::CsvOptions csv;
  csv.num_threads = kThreads;
  const muds::Relation deduped =
      muds::DeduplicateRows(muds::CsvReader::ReadFile(path, csv).value())
          .relation;
  double pli_build = 0;
  for (int c = 0; c < deduped.NumColumns(); ++c) {
    const double start = Now();
    const muds::Pli pli =
        muds::Pli::FromColumn(deduped.GetColumn(c), deduped.NumRows());
    pli_build += Now() - start;
  }
  report->metrics["pli.single_column_build_s"] = pli_build;

  if (table == "wide_fd_rich") {
    const double start = Now();
    const muds::FdDiscoveryResult tane = muds::Tane::Discover(deduped);
    report->metrics["fd.tane_s"] = Now() - start;
    ++report->attempted;
    const Summary tane_summary =
        Summarize(ResultSets{result.value().inds, tane.uccs, tane.fds});
    if (!(tane_summary == Expected(table))) {
      report->Fail("TANE on " + table + " gives " + tane_summary.ToString());
    }
  }
}

void RunBatch(const Args& args, const std::string& table,
              const std::function<std::string()>& make_csv, Report* report) {
  const std::string path = args.out_dir + "/" + table + ".csv";
  report->metrics["setup_s"] =
      TimedSetups([&] { WriteFile(path, make_csv()); });

  std::vector<double> latencies;
  const double start = Now();
  while (latencies.empty() || Now() - start < args.seconds) {
    const double t0 = Now();
    muds::Result<muds::ProfilingResult> result =
        muds::ProfileCsvFile(path, Options());
    const std::string json =
        result.ok() ? muds::ProfilingResultToJson(result.value()) : "";
    const double t1 = Now();
    ++report->attempted;
    const int64_t failed_before = report->failed;
    if (!result.ok()) {
      report->Fail(table + ": " + result.status().ToString());
    } else {
      CheckReport(table, json, report);
    }
    // A failed or wrong profile counts as missing every latency limit.
    latencies.push_back(report->failed == failed_before ? t1 - t0 : 1e6);
  }

  const double median = Percentile(latencies, 0.5);
  auto& m = report->metrics;
  m["latency_p50_ms"] = median * 1e3;
  m["latency_p90_ms"] = Percentile(latencies, 0.9) * 1e3;
  m["peak_rss_mb"] = PeakRssMb();
  m["bench.latency_samples"] = static_cast<double>(latencies.size());
  std::printf("%s: %zu profiles, median %.1f ms\n", table.c_str(),
              latencies.size(), median * 1e3);

  if (args.trace) TracedPass(args, table, path, median, report);
}

}  // namespace

void RunLongNarrow(const Args& args, Report* report) {
  RunBatch(args, "long_narrow", [&] { return LongNarrowCsv(args.seed); },
           report);
}

void RunWideFdRich(const Args& args, Report* report) {
  // The seed permutes the rows of the fixed table: new bytes, same result
  // sets, and the same lattice work on every seed.
  RunBatch(args, "wide_fd_rich",
           [&] {
             const CsvLines lines = CsvLines::From(WideFdRichTable());
             muds::Rng rng(args.seed);
             const std::vector<uint32_t> order =
                 Permutation(lines.rows.size(), &rng);
             return lines.Join(order, 0, order.size(), true);
           },
           report);
}

}  // namespace e2e
