// Incremental-maintenance bench: grow a relation through a sequence of
// append batches and compare
//   - incremental/appends: IncrementalProfiler::Append per batch (witness
//     screen + localized re-exploration over a PLI cache rebuilt per
//     batch), and
//   - from-scratch/reprofile: ProfileRelation over every grown prefix,
// with the dependency sets verified identical after every batch before
// anything is reported.
//
// incremental_speedup_x100 (cumulative from-scratch time over cumulative
// append time) is the gated ratio (tools/bench_gate +
// bench/baselines/BENCH_incremental.floors.json): the whole point of the
// incremental path is that an append costs far less than a re-profile, so
// a regression here means the screen stopped working.

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/profiler.h"
#include "data/relation.h"
#include "research/incremental.h"
#include "workload/generators.h"

namespace muds {
namespace {

// Mixed shape: a unique id (a UCC that survives every append and must be
// screened, not revalidated), categorical columns (break early, then stay
// broken), and planted FDs whose witnesses the appends occasionally hit.
Relation MakeAppendWorkload(int64_t rows, uint64_t seed) {
  std::vector<ColumnSpec> specs(8);
  specs[0].kind = ColumnSpec::Kind::kUnique;
  specs[1].cardinality = 12;
  specs[2].cardinality = 8;
  specs[3].cardinality = 30;
  specs[4].cardinality = 5;
  specs[5].kind = ColumnSpec::Kind::kDerived;
  specs[5].sources = {1, 2};
  specs[5].cardinality = 40;
  specs[6].kind = ColumnSpec::Kind::kDerived;
  specs[6].sources = {3};
  specs[6].cardinality = 10;
  specs[7].kind = ColumnSpec::Kind::kRenamed;
  specs[7].sources = {4};
  return MakeFromSpecs(rows, specs, seed, "append_workload");
}

Relation Prefix(const Relation& relation, RowId end) {
  std::vector<RowId> rows;
  rows.reserve(static_cast<size_t>(end));
  for (RowId r = 0; r < end; ++r) rows.push_back(r);
  return relation.SelectRows(rows);
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const int64_t rows = args.full ? 120'000 : 30'000;
  const int batches = 10;
  const RowId base_rows = static_cast<RowId>(rows / 2);
  const RowId batch_rows =
      static_cast<RowId>((rows - base_rows) / batches);

  const Relation full = MakeAppendWorkload(rows, args.seed);
  std::printf("input: %lld rows x %d columns, base %lld + %d batches of "
              "%lld rows\n",
              static_cast<long long>(rows), full.NumColumns(),
              static_cast<long long>(base_rows), batches,
              static_cast<long long>(batch_rows));
  bench::PrintRule();

  ProfileOptions options;
  options.seed = args.seed;
  options.num_threads = args.threads;

  const int reps = 2;
  double incremental_ms = 0.0;
  double scratch_ms = 0.0;
  MetricsSnapshot inc_metrics;
  std::vector<std::pair<double, double>> per_batch(
      static_cast<size_t>(batches));
  for (int rep = 0; rep < reps; ++rep) {
    double inc = 0.0;
    double scr = 0.0;
    IncrementalProfiler profiler(Prefix(full, base_rows), options);
    for (int b = 0; b < batches; ++b) {
      const RowId begin = base_rows + b * batch_rows;
      const RowId end =
          b + 1 == batches ? static_cast<RowId>(rows) : begin + batch_rows;
      std::vector<RowId> batch_ids;
      for (RowId r = begin; r < end; ++r) batch_ids.push_back(r);
      const Relation batch = full.SelectRows(batch_ids);
      Timer append_timer;
      const Status appended = profiler.Append(batch);
      const double append_ms =
          static_cast<double>(append_timer.ElapsedMicros()) / 1e3;
      inc += append_ms;
      if (!appended.ok()) {
        std::fprintf(stderr, "FAIL: append %d: %s\n", b,
                     appended.ToString().c_str());
        return 1;
      }

      const Relation prefix = Prefix(full, end);
      Timer scratch_timer;
      const ProfilingResult result = ProfileRelation(prefix, options);
      const double reprofile_ms =
          static_cast<double>(scratch_timer.ElapsedMicros()) / 1e3;
      scr += reprofile_ms;
      if (rep == 0 || append_ms + reprofile_ms <
                          per_batch[static_cast<size_t>(b)].first +
                              per_batch[static_cast<size_t>(b)].second) {
        per_batch[static_cast<size_t>(b)] = {append_ms, reprofile_ms};
      }
      if (result.inds != profiler.inds() || result.uccs != profiler.uccs() ||
          result.fds != profiler.fds()) {
        std::fprintf(stderr,
                     "FAIL: batch %d: incremental result differs from "
                     "from-scratch\n",
                     b);
        return 1;
      }
    }
    if (rep == 0 || inc < incremental_ms) incremental_ms = inc;
    if (rep == 0 || scr < scratch_ms) scratch_ms = scr;
    inc_metrics = profiler.Result().metrics;
  }

  for (int b = 0; b < batches; ++b) {
    std::printf("batch %2d: append %7.1f ms, re-profile %7.1f ms\n", b + 1,
                per_batch[static_cast<size_t>(b)].first,
                per_batch[static_cast<size_t>(b)].second);
  }
  const auto count = [&inc_metrics](const char* name) {
    return metrics::ValueOf(inc_metrics, std::string("incremental.") + name);
  };
  const double speedup = scratch_ms / incremental_ms;
  std::printf("%-24s %9.1f ms  (screened %lld, revalidated %lld, broken "
              "%lld, rediscovered %lld)\n",
              "incremental/appends", incremental_ms,
              static_cast<long long>(count("screened_out")),
              static_cast<long long>(count("revalidated")),
              static_cast<long long>(count("broken")),
              static_cast<long long>(count("rediscovered")));
  std::printf("%-24s %9.1f ms\n", "from-scratch/reprofile", scratch_ms);
  std::printf("speedup: %.2fx over %d batches\n", speedup, batches);

  bench::JsonResultWriter writer("incremental");
  writer.Add("incremental/appends", incremental_ms, args.threads,
             {{"rows", rows},
              {"batches", batches},
              {"screened_out", count("screened_out")},
              {"revalidated", count("revalidated")},
              {"broken", count("broken")},
              {"rediscovered", count("rediscovered")},
              {"scratch_ms_x1000", static_cast<int64_t>(scratch_ms * 1000)},
              {"incremental_ms_x1000",
               static_cast<int64_t>(incremental_ms * 1000)},
              {"incremental_speedup_x100",
               static_cast<int64_t>(speedup * 100.0)}},
             inc_metrics);
  writer.Add("from-scratch/reprofile", scratch_ms, args.threads,
             {{"rows", rows}, {"batches", batches}});
  writer.Write();
  bench::PrintRule();
  std::printf("all %d incremental prefixes bit-identical to from-scratch\n",
              batches);
  return 0;
}

}  // namespace
}  // namespace muds

int main(int argc, char** argv) { return muds::Run(argc, argv); }
