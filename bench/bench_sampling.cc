// Sampling-first hybrid validation (evidence-driven candidate refutation):
// adversarial wide, low-FD relation where lattice validation dominates —
// many independent low-cardinality columns push the minimal UCCs and FD
// left-hand sides high into the lattice, so DUCC and the MUDS FD phases
// grind through a large all-invalid candidate region whose PLIs are big
// (expensive intersects/refines) while a sampled evidence store refutes
// those candidates by microsecond subset probes.
//
// Measures the MUDS lattice-validation phases (DUCC + calculateRZ +
// exhaustiveCompletion, plus the sampled run's evidenceBuild cost) with
// --sample-pairs=0 vs 65536, asserts the result sets are bit-identical
// (the refutation-only invariant), and emits sampling_speedup_x100 for the
// perf gate (bench/baselines/BENCH_sampling.floors.json): the whole point
// of the evidence store is that refuting a candidate by one subset probe is
// far cheaper than intersecting PLIs, so the gate enforces >= 2x.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/profiler.h"
#include "workload/generators.h"

namespace muds {
namespace {

int64_t LatticeMicros(const ProfilingResult& result) {
  int64_t total = 0;
  for (const auto& [phase, micros] : result.timings.entries()) {
    if (phase == "DUCC" || phase == "calculateRZ" ||
        phase == "exhaustiveCompletion" || phase == "evidenceBuild") {
      total += micros;
    }
  }
  return total;
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const int64_t rows = args.full ? 200'000 : 60'000;
  const int cols = 14;
  const int64_t sample_pairs = 65'536;

  // Low cardinality + many columns is the paper's "favorable pruning"
  // shape inverted against the validator: minimal UCCs and FD left-hand
  // sides sit high in the lattice, so the engines grind through a huge
  // all-invalid region — and every sampled pair agrees on ~cols/card
  // columns at once, so its small disagreement set refutes whole lattice
  // regions by one subset probe.
  std::vector<int64_t> cards(static_cast<size_t>(cols), 4);
  const Relation relation =
      MakeCategorical(rows, cards, args.seed, "sampling_workload");
  std::printf("input: %lld rows x %d columns, cardinality 4\n",
              static_cast<long long>(rows), cols);
  bench::PrintRule();

  ProfileOptions base_options;
  base_options.algorithm = Algorithm::kMuds;
  base_options.seed = args.seed;
  base_options.num_threads = args.threads;
  ProfileOptions sampled_options = base_options;
  sampled_options.sampling.pairs = sample_pairs;
  sampled_options.sampling.seed = args.seed + 1;

  const int reps = 3;
  double base_ms = 0.0;
  double sampled_ms = 0.0;
  double base_lattice_ms = 0.0;
  double sampled_lattice_ms = 0.0;
  ProfilingResult base_result;
  ProfilingResult sampled_result;
  for (int rep = 0; rep < reps; ++rep) {
    Timer base_timer;
    ProfilingResult base = ProfileRelation(relation, base_options);
    const double base_wall =
        static_cast<double>(base_timer.ElapsedMicros()) / 1e3;
    Timer sampled_timer;
    ProfilingResult sampled = ProfileRelation(relation, sampled_options);
    const double sampled_wall =
        static_cast<double>(sampled_timer.ElapsedMicros()) / 1e3;

    if (base.inds != sampled.inds || base.uccs != sampled.uccs ||
        base.fds != sampled.fds) {
      std::fprintf(stderr,
                   "FAIL: sampled result differs from unsampled "
                   "(refutation-only invariant broken)\n");
      return 1;
    }
    if (rep == 0 || base_wall < base_ms) {
      base_ms = base_wall;
      base_lattice_ms = static_cast<double>(LatticeMicros(base)) / 1e3;
    }
    if (rep == 0 || sampled_wall < sampled_ms) {
      sampled_ms = sampled_wall;
      sampled_lattice_ms = static_cast<double>(LatticeMicros(sampled)) / 1e3;
    }
    base_result = std::move(base);
    sampled_result = std::move(sampled);
  }

  const MetricsSnapshot& base_metrics = base_result.metrics;
  const MetricsSnapshot& sampled_metrics = sampled_result.metrics;
  const int64_t refuted = metrics::ValueOf(sampled_metrics, "sampling.refuted");
  const int64_t fd_checks_base =
      metrics::ValueOf(base_metrics, "muds.fd_checks");
  const int64_t fd_checks_sampled =
      metrics::ValueOf(sampled_metrics, "muds.fd_checks");
  const double lattice_speedup = base_lattice_ms / sampled_lattice_ms;
  const double total_speedup = base_ms / sampled_ms;
  std::printf("%-28s %9.1f ms total, %9.1f ms lattice (%lld fd checks)\n",
              "muds/sample-pairs=0", base_ms, base_lattice_ms,
              static_cast<long long>(fd_checks_base));
  std::printf("%-28s %9.1f ms total, %9.1f ms lattice (%lld fd checks, "
              "%lld refuted)\n",
              "muds/sample-pairs=65536", sampled_ms, sampled_lattice_ms,
              static_cast<long long>(fd_checks_sampled),
              static_cast<long long>(refuted));
  std::printf("lattice speedup: %.2fx, end-to-end: %.2fx\n", lattice_speedup,
              total_speedup);

  bench::JsonResultWriter writer("sampling");
  writer.Add("muds/sample-pairs=0", base_ms, args.threads,
             {{"rows", rows},
              {"cols", cols},
              {"fd_checks", fd_checks_base},
              {"lattice_ms_x1000",
               static_cast<int64_t>(base_lattice_ms * 1000)}},
             base_result.metrics);
  writer.Add("muds/sample-pairs=65536", sampled_ms, args.threads,
             {{"rows", rows},
              {"cols", cols},
              {"sample_pairs", sample_pairs},
              {"fd_checks", fd_checks_sampled},
              {"sampling_pairs",
               metrics::ValueOf(sampled_metrics, "sampling.pairs")},
              {"sampling_refuted", refuted},
              {"sampling_fed_back",
               metrics::ValueOf(sampled_metrics, "sampling.fed_back")},
              {"lattice_ms_x1000",
               static_cast<int64_t>(sampled_lattice_ms * 1000)},
              {"sampling_speedup_x100",
               static_cast<int64_t>(lattice_speedup * 100.0)},
              {"total_speedup_x100",
               static_cast<int64_t>(total_speedup * 100.0)}},
             sampled_result.metrics);
  writer.Write();
  bench::PrintRule();
  std::printf("result sets bit-identical with and without sampling\n");
  return 0;
}

}  // namespace
}  // namespace muds

int main(int argc, char** argv) { return muds::Run(argc, argv); }
