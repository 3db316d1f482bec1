// Figure 8 (§6.4): runtime of MUDS' phases on the ncvoter-like dataset
// (20 columns, 10,000 rows): SPIDER, DUCC, minimizeFDs, calculate R\Z,
// generate shadowed fd tasks, minimize shadowed tasks.
//
// Paper shape to reproduce: SPIDER and DUCC are almost negligible; the two
// shadowed-FD phases dominate (an order of magnitude above everything
// else), with the PLI-intersect-backed FD checks as the main cost.

#include <cstdio>

#include "bench_util.h"
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
  config.num_threads = args.threads;
  MudsResult result;
  const double wall_ms =
      bench::WallMs([&] { result = Muds::Run(deduped, config); });

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
              static_cast<long long>(result.stats.fd_checks_minimize),
              static_cast<long long>(result.stats.fd_checks_rz),
              static_cast<long long>(result.stats.fd_checks_shadowed),
              static_cast<long long>(result.stats.pli_intersects),
              static_cast<long long>(result.stats.shadowed_tasks),
              static_cast<long long>(result.stats.shadowed_rounds));

  bench::JsonResultWriter json("fig8_phases");
  std::vector<std::pair<std::string, int64_t>> counters = {
      {"fd_checks_minimize", result.stats.fd_checks_minimize},
      {"fd_checks_rz", result.stats.fd_checks_rz},
      {"fd_checks_shadowed", result.stats.fd_checks_shadowed},
      {"pli_intersects", result.stats.pli_intersects},
      {"shadowed_tasks", result.stats.shadowed_tasks},
      {"parallel_tasks", result.stats.parallel_tasks},
  };
  for (const auto& [name, micros] : result.timings.entries()) {
    counters.emplace_back("micros/" + name, micros);
  }
  json.Add("muds/phases", wall_ms, result.stats.num_threads_used, counters);
  return 0;
}
