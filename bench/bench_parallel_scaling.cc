// Parallel engine scaling: MUDS wall clock at 1/2/4/8 worker threads on a
// generated relation whose cost is dominated by the "calculate R\Z" phase —
// one id column is the only minimal UCC, so every other column gets its own
// independent sub-lattice traversal (§5.2) and the per-right-hand-side tasks
// are what the thread pool spreads across cores.
//
// The discovered IND/UCC/FD sets are identical for every thread count (each
// traversal derives its own seed); the bench verifies that on every run.
// Speedup is bounded by the hardware: on a single-core machine all thread
// counts measure the same work.

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace muds;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);

  const int64_t rows = args.full ? 60000 : 20000;
  const int base_cols = 8;
  const int derived_cols = args.full ? 8 : 6;

  // One unique id plus binary base columns whose full cross product
  // (2^base_cols distinct combos) stays far below the row count — so {id}
  // is the only minimal UCC, every other column lies in R\Z, and the run
  // is carried by the per-right-hand-side sub-lattice traversals that the
  // pool parallelizes. The derived columns plant FDs with multi-column
  // left-hand sides, forcing each traversal to verify candidates
  // mid-lattice (real PLI work) instead of pruning everything away.
  std::vector<ColumnSpec> specs;
  ColumnSpec id;
  id.kind = ColumnSpec::Kind::kUnique;
  specs.push_back(id);
  for (int c = 0; c < base_cols; ++c) {
    ColumnSpec spec;
    spec.kind = ColumnSpec::Kind::kCategorical;
    spec.cardinality = 2;
    specs.push_back(spec);
  }
  for (int c = 0; c < derived_cols; ++c) {
    ColumnSpec spec;
    spec.kind = ColumnSpec::Kind::kDerived;
    spec.cardinality = 2;
    for (int s = 0; s < 4; ++s) {
      spec.sources.push_back(1 + ((c + s * 2) % base_cols));
    }
    specs.push_back(spec);
  }
  const Relation relation =
      MakeFromSpecs(rows, specs, args.seed, "parallel_scaling");

  std::printf("Parallel scaling: MUDS on %lld rows x %d columns "
              "(R\\Z-dominated; %u hardware threads)\n",
              static_cast<long long>(rows), base_cols + derived_cols + 1,
              std::thread::hardware_concurrency());
  std::printf("%-8s %12s %12s %10s %8s %8s %8s %15s %9s\n", "threads",
              "wall[s]", "rz[s]", "speedup", "INDs", "UCCs", "FDs",
              "parallel_tasks", "cache");
  bench::PrintRule();

  bench::JsonResultWriter json("parallel_scaling");
  double base_seconds = 0;
  ProfilingResult reference;
  bool all_identical = true;
  for (int threads : {1, 2, 4, 8}) {
    ProfileOptions options;
    options.algorithm = Algorithm::kMuds;
    options.seed = args.seed;
    options.num_threads = threads;
    ProfilingResult result;
    const double wall_ms = bench::WallMs(
        [&] { result = ProfileRelation(relation, options); });

    const double seconds = wall_ms / 1e3;
    if (threads == 1) {
      base_seconds = seconds;
      reference = result;
    } else if (result.inds != reference.inds ||
               result.uccs != reference.uccs ||
               result.fds != reference.fds) {
      all_identical = false;
    }
    const int64_t parallel_tasks =
        metrics::ValueOf(result.metrics, "muds.parallel_tasks");
    const int64_t cache_hits =
        metrics::ValueOf(result.metrics, "pli_cache.hits");
    const int64_t cache_misses =
        metrics::ValueOf(result.metrics, "pli_cache.misses");
    // PLI-cache hit rate over all Get probes (§6.4: intersect work saved).
    const int64_t probes = cache_hits + cache_misses;
    const double hit_rate =
        probes > 0 ? 100.0 * static_cast<double>(cache_hits) /
                         static_cast<double>(probes)
                   : 0.0;
    std::printf("%-8d %12.3f %12.3f %9.2fx %8zu %8zu %8zu %15lld %8.1f%%\n",
                threads, seconds,
                static_cast<double>(result.timings.Micros("calculateRZ")) /
                    1e6,
                base_seconds / seconds, result.inds.size(),
                result.uccs.size(), result.fds.size(),
                static_cast<long long>(parallel_tasks), hit_rate);
    std::fflush(stdout);

    char name[64];
    std::snprintf(name, sizeof(name), "muds/threads=%d", threads);
    json.Add(name, wall_ms, result);
  }
  std::printf("results identical across thread counts: %s\n",
              all_identical ? "yes" : "NO — BUG");
  return all_identical ? 0 : 1;
}
