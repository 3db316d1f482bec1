// Algorithm tour: run every profiling strategy in the library on the same
// dataset — the paper's baseline (sequential SPIDER + DUCC + FUN), Holistic
// FUN, MUDS, and plain TANE — and show that they agree while doing very
// different amounts of work.
//
//   ./build/examples/algorithm_tour [columns] [rows]

#include <cstdio>
#include <cstdlib>

#include "common/metrics.h"
#include "common/timer.h"
#include "core/profiler.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "fd/tane.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace muds;
  const int cols = argc > 1 ? std::atoi(argv[1]) : 12;
  const int64_t rows = argc > 2 ? std::atoll(argv[2]) : 2000;

  Relation relation = MakeNcvoterLike(rows, cols, /*seed=*/7);
  const std::string csv = CsvWriter::ToString(relation);
  std::printf("dataset: ncvoter-like, %lld rows x %d columns\n\n",
              static_cast<long long>(rows), cols);

  std::printf("%-10s %10s %8s %8s %8s   %s\n", "algorithm", "time[s]",
              "INDs", "UCCs", "FDs", "notes");

  ProfilingResult reference;
  for (Algorithm algorithm : {Algorithm::kBaseline, Algorithm::kHolisticFun,
                              Algorithm::kMuds}) {
    ProfileOptions options;
    options.algorithm = algorithm;
    Result<ProfilingResult> result = ProfileCsvString(csv, options);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const ProfilingResult& r = result.value();
    // The run's registry metrics: MUDS counts its FD checks under muds.*,
    // FUN (inside HFUN and the baseline) under fun.*; PLI-cache intersects
    // are MUDS' and the baseline DUCC's.
    const auto count = [&r](const char* name) {
      return static_cast<long long>(metrics::ValueOf(r.metrics, name));
    };
    std::printf("%-10s %10.3f %8zu %8zu %8zu   fd_checks=%lld "
                "pli_intersects=%lld\n",
                AlgorithmName(algorithm), r.TotalSeconds(), r.inds.size(),
                r.uccs.size(), r.fds.size(),
                count("muds.fd_checks") + count("fun.fd_checks"),
                count("pli_cache.intersects") + count("fun.pli_intersects"));
    if (algorithm == Algorithm::kBaseline) {
      reference = r;
    } else if (r.fds != reference.fds || r.uccs != reference.uccs ||
               r.inds != reference.inds) {
      std::printf("  ^^ DISAGREES with the baseline!\n");
    }
  }

  // TANE for comparison: FD discovery only.
  Timer timer;
  Relation parsed = CsvReader::ReadString(csv).value();
  Relation deduped = DeduplicateRows(parsed).relation;
  const MetricsScope tane_scope;
  FdDiscoveryResult tane = Tane::Discover(deduped);
  std::printf("%-10s %10.3f %8s %8zu %8zu   fd_checks=%lld (FDs only)\n",
              "TANE", timer.ElapsedSeconds(), "-", tane.uccs.size(),
              tane.fds.size(),
              static_cast<long long>(metrics::ValueOf(
                  tane_scope.run()->Snapshot(), "tane.fd_checks")));
  if (tane.fds != reference.fds) {
    std::printf("  ^^ DISAGREES with the baseline!\n");
  }

  std::printf("\nall strategies computed the same metadata; the holistic\n"
              "ones shared the read, the PLIs, and the pruning knowledge.\n");
  return 0;
}
