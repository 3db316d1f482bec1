#ifndef MUDS_E2EBENCH_BENCH_H_
#define MUDS_E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// False: the untraced run that reports the end-to-end metrics. True: the
  /// same untraced run plus one traced pass that reports the per-layer
  /// metrics.
  bool trace = false;
  /// Where the run writes its input files, result summary and Chrome trace.
  std::string out_dir = ".bench_build/out";
};

/// What one run measured. Metric names are those of BENCHMARK.json; the
/// unit of every name is fixed in main.cc.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Counts one failed or wrong operation and says why on stderr.
  void Fail(const std::string& why);
};

/// Seconds on the steady clock.
double Now();

/// Linear-interpolation percentile (q in [0, 1]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// The workloads. Each fills `report` with every end-to-end metric and, when
// args.trace is set, the per-layer metrics of its traced pass.
void RunLongNarrow(const Args& args, Report* report);
void RunWideFdRich(const Args& args, Report* report);
void RunServeMixed(const Args& args, Report* report);

}  // namespace e2e

#endif  // MUDS_E2EBENCH_BENCH_H_
