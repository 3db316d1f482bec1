// Out-of-core bench: profiling under a PLI budget an order of magnitude
// smaller than the working set, with and without the disk spill tier.
//
// Three measurements, written to BENCH_out_of_core.json:
//   - muds/budget=unlimited|tight|tight+spill: end-to-end profiling wall
//     time; the three dependency sets are verified bit-identical before
//     anything is reported.
//   - revalidate/cold: a cold-cache re-validation pass over every 2- and
//     3-column PLI, served by spill-reload versus rebuild-from-intersect.
//     reload_speedup_x100 is the gated ratio (tools/bench_gate +
//     bench/baselines/BENCH_out_of_core.floors.json): reloading a
//     serialized PLI must beat re-deriving it from the pinned columns.
//   - spider/in-memory|external: IND discovery wall time for the in-memory
//     merge and the disk-resident external sort-merge.
//
// Generator mode for the CI out-of-core job:
//   bench_out_of_core --write-csv=PATH --rows=N
// writes an N-row low-cardinality CSV (whose PLI working set dwarfs any
// small --pli-budget-mb) to PATH and exits.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/profiler.h"
#include "ind/spider.h"
#include "pli/pli_cache.h"
#include "workload/generators.h"

namespace muds {
namespace {

constexpr int64_t kCardinalities[] = {6, 4, 8, 3, 5, 7, 2, 9};

SpillConfig TempSpill() {
  SpillConfig spill;
  spill.dir = std::filesystem::temp_directory_path().string();
  return spill;
}

int WriteCsv(const std::string& path, int64_t rows, uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot create %s\n", path.c_str());
    return 1;
  }
  const int cols = static_cast<int>(std::size(kCardinalities));
  for (int c = 0; c < cols; ++c) {
    std::fprintf(f, "%sc%d", c == 0 ? "" : ",", c);
  }
  std::fputc('\n', f);
  Rng rng(seed);
  std::string line;
  for (int64_t r = 0; r < rows; ++r) {
    line.clear();
    for (int c = 0; c < cols; ++c) {
      if (c != 0) line += ',';
      line += 'v';
      line += std::to_string(rng.NextBelow(
          static_cast<uint64_t>(kCardinalities[c])));
    }
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), f);
  }
  std::fclose(f);
  std::printf("wrote %lld rows x %d columns to %s\n",
              static_cast<long long>(rows), cols, path.c_str());
  return 0;
}

bool SameSets(const ProfilingResult& a, const ProfilingResult& b) {
  return a.inds == b.inds && a.uccs == b.uccs && a.fds == b.fds;
}

int64_t Counter(const ProfilingResult& result, const char* name) {
  return metrics::ValueOf(result.metrics, name);
}

std::vector<ColumnSet> AllPairsAndTriples(int n) {
  std::vector<ColumnSet> sets;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      sets.push_back(ColumnSet::FromIndices({a, b}));
      for (int c = b + 1; c < n; ++c) {
        sets.push_back(ColumnSet::FromIndices({a, b, c}));
      }
    }
  }
  return sets;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args;
  std::string write_csv;
  int64_t csv_rows = 3'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed =
          static_cast<uint64_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      args.threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--write-csv=", 12) == 0) {
      write_csv = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      csv_rows = std::strtoll(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    }
  }
  if (!write_csv.empty()) return WriteCsv(write_csv, csv_rows, args.seed);

  const int64_t rows = args.full ? 400'000 : 120'000;
  constexpr size_t kTightBudget = 64 << 10;
  const int reps = 3;
  const Relation relation = MakeCategorical(
      rows,
      std::vector<int64_t>(std::begin(kCardinalities),
                           std::end(kCardinalities)),
      args.seed, "out_of_core");
  std::printf("input: %lld rows x %d columns, tight budget %zu KiB\n",
              static_cast<long long>(rows), relation.NumColumns(),
              kTightBudget >> 10);
  bench::PrintRule();

  bench::JsonResultWriter writer("out_of_core");

  // End-to-end profiling across the three cache configurations. The spill
  // path must be invisible in the result sets.
  struct ProfileConfig {
    const char* name;
    size_t budget_bytes;
    bool spill;
  };
  const ProfileConfig profile_configs[] = {
      {"muds/budget=unlimited", 0, false},
      {"muds/budget=tight", kTightBudget, false},
      {"muds/budget=tight+spill", kTightBudget, true},
  };
  std::vector<ProfilingResult> results;
  for (const ProfileConfig& config : profile_configs) {
    ProfileOptions options;
    options.seed = args.seed;
    options.num_threads = args.threads;
    options.pli_budget_bytes = config.budget_bytes;
    if (config.spill) options.spill = TempSpill();
    double best_ms = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      ProfilingResult result = ProfileRelation(relation, options);
      const double ms = static_cast<double>(timer.ElapsedMicros()) / 1e3;
      if (rep == 0) results.push_back(std::move(result));
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    const ProfilingResult& result = results.back();
    std::printf("%-26s %9.1f ms  spill writes %lld, reloads %lld\n",
                config.name, best_ms,
                static_cast<long long>(
                    Counter(result, "pli_cache.spill_writes")),
                static_cast<long long>(
                    Counter(result, "pli_cache.spill_reloads")));
    writer.Add(config.name, best_ms, args.threads,
               {{"rows", rows},
                {"pli_cache_spill_writes",
                 Counter(result, "pli_cache.spill_writes")},
                {"pli_cache_spill_reloads",
                 Counter(result, "pli_cache.spill_reloads")},
                {"pli_cache_evictions",
                 Counter(result, "pli_cache.evictions")}});
  }
  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameSets(results[0], results[i])) {
      std::fprintf(stderr, "FAIL: %s result sets differ from unlimited\n",
                   profile_configs[i].name);
      return 1;
    }
  }

  // Cold-cache re-validation: every derived PLI is rebuilt (tight cache)
  // or reloaded from the spill file (tiered cache). The warm pass pushes
  // all of them through the cache once; the timed pass re-requests them.
  const std::vector<ColumnSet> sets =
      AllPairsAndTriples(relation.NumColumns());
  double rebuild_ms = 0.0;
  double reload_ms = 0.0;
  int64_t reloads = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Only the tiered cache spills, so the run's reloads are its own.
    const MetricsScope scope;
    PliCache rebuild(relation, /*budget_bytes=*/1);
    PliCache tiered(relation, /*budget_bytes=*/1, nullptr, TempSpill());
    for (const ColumnSet& set : sets) {
      rebuild.Get(set);
      tiered.Get(set);
    }
    Timer rebuild_timer;
    for (const ColumnSet& set : sets) rebuild.Get(set);
    const double rb = static_cast<double>(rebuild_timer.ElapsedMicros()) / 1e3;
    Timer reload_timer;
    for (const ColumnSet& set : sets) tiered.Get(set);
    const double rl = static_cast<double>(reload_timer.ElapsedMicros()) / 1e3;
    if (rep == 0 || rb < rebuild_ms) rebuild_ms = rb;
    if (rep == 0 || rl < reload_ms) reload_ms = rl;
    reloads = metrics::ValueOf(scope.run()->Snapshot(),
                               "pli_cache.spill_reloads");
  }
  const double speedup = rebuild_ms / reload_ms;
  std::printf("revalidate/cold: rebuild %8.1f ms, reload %8.1f ms "
              "(%lld reloads) -> %.2fx\n",
              rebuild_ms, reload_ms, static_cast<long long>(reloads),
              speedup);
  writer.Add("revalidate/cold", reload_ms, 1,
             {{"sets", static_cast<int64_t>(sets.size())},
              {"spill_reloads", reloads},
              {"rebuild_ms_x1000", static_cast<int64_t>(rebuild_ms * 1000)},
              {"reload_ms_x1000", static_cast<int64_t>(reload_ms * 1000)},
              {"reload_speedup_x100",
               static_cast<int64_t>(speedup * 100.0)}});

  // IND discovery: in-memory merge vs the external sort-merge.
  double memory_ms = 0.0;
  double external_ms = 0.0;
  std::vector<Ind> memory_inds;
  std::vector<Ind> external_inds;
  for (int rep = 0; rep < reps; ++rep) {
    Timer memory_timer;
    memory_inds = Spider::Discover(relation);
    const double mm = static_cast<double>(memory_timer.ElapsedMicros()) / 1e3;
    SpiderExternalOptions external;
    external.spill = TempSpill();
    Timer external_timer;
    external_inds = Spider::DiscoverExternal(relation, external);
    const double em =
        static_cast<double>(external_timer.ElapsedMicros()) / 1e3;
    if (rep == 0 || mm < memory_ms) memory_ms = mm;
    if (rep == 0 || em < external_ms) external_ms = em;
  }
  if (external_inds != memory_inds) {
    std::fprintf(stderr, "FAIL: external SPIDER differs from in-memory\n");
    return 1;
  }
  std::printf("spider: in-memory %8.1f ms, external %8.1f ms\n", memory_ms,
              external_ms);
  writer.Add("spider/in-memory", memory_ms, 1, {{"rows", rows}});
  writer.Add("spider/external", external_ms, 1, {{"rows", rows}});

  writer.Write();
  bench::PrintRule();
  std::printf("all spilled result sets bit-identical to the in-memory "
              "runs\n");
  return 0;
}

}  // namespace
}  // namespace muds

int main(int argc, char** argv) { return muds::Run(argc, argv); }
