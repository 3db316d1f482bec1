// Figure 8 (§6.4): runtime of MUDS' phases on the ncvoter-like dataset
// (20 columns, 10,000 rows): SPIDER, DUCC, minimizeFDs, calculate R\Z,
// generate shadowed fd tasks, minimize shadowed tasks.
//
// Paper shape to reproduce: SPIDER and DUCC are almost negligible; the two
// shadowed-FD phases dominate (an order of magnitude above everything
// else), with the PLI-intersect-backed FD checks as the main cost.

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/muds.h"
#include "data/preprocess.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace muds;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);

  const int cols = args.full ? 20 : 16;
  const int64_t rows = args.full ? 10000 : 5000;

  Relation relation = MakeNcvoterLike(rows, cols, args.seed);
  Relation deduped = DeduplicateRows(relation).relation;

  EngineConfig config;
  config.seed = args.seed;
  MudsResult result;
  MetricsSnapshot run_metrics;
  const double wall_ms = bench::WallMs([&] {
    const MetricsScope scope;
    ThreadPool pool(args.threads);
    result = Muds::Run(deduped, config, {}, &pool);
    run_metrics = scope.run()->Snapshot();
  });
  const auto count = [&run_metrics](const char* name) {
    return static_cast<long long>(metrics::ValueOf(run_metrics, name));
  };

  std::printf("Figure 8: runtime of MUDS' phases "
              "(ncvoter-like, %lld rows, %d columns)\n",
              static_cast<long long>(rows), cols);
  std::printf("%-28s %12s\n", "phase", "time[s]");
  bench::PrintRule(42);
  for (const auto& [name, micros] : result.timings.entries()) {
    std::printf("%-28s %12.3f\n", name.c_str(),
                static_cast<double>(micros) / 1e6);
  }
  bench::PrintRule(42);
  std::printf("%-28s %12.3f\n", "sum of phases",
              static_cast<double>(result.timings.TotalMicros()) / 1e6);
  std::printf("%-28s %12.3f\n", "wall", wall_ms / 1e3);

  std::printf("\ndiscovered: %zu INDs, %zu minimal UCCs, %zu minimal FDs\n",
              result.inds.size(), result.uccs.size(), result.fds.size());
  std::printf("FD checks: minimize=%lld rz=%lld shadowed=%lld; "
              "PLI intersects=%lld; shadowed tasks=%lld (%lld rounds)\n",
              count("muds.fd_checks.minimize"), count("muds.fd_checks.rz"),
              count("muds.fd_checks.shadowed"), count("pli_cache.intersects"),
              count("muds.shadowed_tasks"), count("muds.shadowed_rounds"));

  bench::JsonResultWriter json("fig8_phases");
  std::vector<std::pair<std::string, int64_t>> counters;
  for (const auto& [name, micros] : result.timings.entries()) {
    counters.emplace_back("micros/" + name, micros);
  }
  const int threads =
      args.threads > 0 ? args.threads
                       : static_cast<int>(std::thread::hardware_concurrency());
  json.Add("muds/phases", wall_ms, threads, counters, run_metrics);
  return 0;
}
