// Figure 6 (§6.1): row scalability on the uniprot-like dataset, 10 columns.
// Series: baseline (sequential SPIDER+DUCC+FUN), Holistic FUN, MUDS.
//
// Paper shape to reproduce: all three scale ~linearly in the row count;
// Holistic FUN is fastest (about 1/3 faster than the baseline thanks to the
// shared read and the free UCC byproduct); MUDS is slowest because the
// dataset's many small-left-hand-side FDs make the shadowed-FD phase
// expensive.

#include <cstdio>

#include "bench_util.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace muds;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);

  const int cols = 10;
  std::vector<int64_t> row_counts;
  if (args.full) {
    row_counts = {50000, 100000, 150000, 200000, 250000};
  } else {
    row_counts = {10000, 20000, 30000, 40000, 50000};
  }

  std::printf("Figure 6: scalability with the number of rows "
              "(uniprot-like, %d columns)\n", cols);
  std::printf("%-10s %12s %12s %12s %8s %8s %8s\n", "rows",
              "baseline[s]", "HFUN[s]", "MUDS[s]", "INDs", "UCCs", "FDs");
  bench::PrintRule();
  bench::JsonResultWriter json("fig6_rows");
  for (int64_t rows : row_counts) {
    Relation relation = MakeUniprotLike(rows, cols, args.seed);
    const std::string csv = bench::ToCsv(relation);

    ProfilingResult baseline;
    ProfilingResult hfun;
    ProfilingResult muds;
    const double baseline_ms = bench::WallMs([&] {
      baseline = bench::RunAlgorithm(csv, Algorithm::kBaseline, args.seed);
    });
    const double hfun_ms = bench::WallMs([&] {
      hfun = bench::RunAlgorithm(csv, Algorithm::kHolisticFun, args.seed);
    });
    const double muds_ms = bench::WallMs([&] {
      muds = bench::RunAlgorithm(csv, Algorithm::kMuds, args.seed);
    });

    std::printf("%-10lld %12.3f %12.3f %12.3f %8zu %8zu %8zu\n",
                static_cast<long long>(rows), baseline_ms / 1e3,
                hfun_ms / 1e3, muds_ms / 1e3, muds.inds.size(),
                muds.uccs.size(), muds.fds.size());
    std::fflush(stdout);

    char name[64];
    std::snprintf(name, sizeof(name), "baseline/rows=%lld",
                  static_cast<long long>(rows));
    json.Add(name, baseline_ms, baseline);
    std::snprintf(name, sizeof(name), "hfun/rows=%lld",
                  static_cast<long long>(rows));
    json.Add(name, hfun_ms, hfun);
    std::snprintf(name, sizeof(name), "muds/rows=%lld",
                  static_cast<long long>(rows));
    json.Add(name, muds_ms, muds);
  }
  return 0;
}
