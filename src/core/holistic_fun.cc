#include "core/holistic_fun.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/evidence.h"
#include "fd/fun.h"
#include "ind/spider.h"
#include "pli/pli_cache.h"
#include "ucc/ducc.h"

namespace muds {

HolisticResult HolisticFun::Run(const Relation& relation,
                                const EngineConfig& config, ThreadPool* pool) {
  HolisticResult result;
  const auto run_fun = [&relation, &config, &result] {
    MUDS_TRACE_SPAN(&result.timings, "FUN");
    FdDiscoveryResult fd_result = Fun::Discover(relation, config.sampling);
    result.fds = std::move(fd_result.fds);
    result.uccs = std::move(fd_result.uccs);
  };
  if (pool != nullptr && pool->NumThreads() > 1) {
    // SPIDER (dictionary merge) and FUN (PLI lattice) read disjoint state:
    // overlap them. Each phase is charged its own task time, measured
    // inside the task and merged afterwards (PhaseTimings itself is not
    // thread-safe). Register SPIDER first to keep the paper's phase order.
    result.timings.Add("SPIDER", 0);
    std::future<std::pair<std::vector<Ind>, int64_t>> inds =
        pool->Submit([&relation, &config] {
          // Trace-only span: PhaseTimings is not thread-safe, so the task
          // measures its own time and the caller merges it below.
          MUDS_TRACE_SPAN("SPIDER");
          Timer timer;
          std::vector<Ind> discovered =
              Spider::Discover(relation, config.spill);
          return std::make_pair(std::move(discovered),
                                timer.ElapsedMicros());
        });
    run_fun();
    auto [discovered, spider_micros] = inds.get();
    result.inds = std::move(discovered);
    result.timings.Add("SPIDER", spider_micros);
    return result;
  }
  {
    MUDS_TRACE_SPAN(&result.timings, "SPIDER");
    result.inds = Spider::Discover(relation, config.spill);
  }
  run_fun();
  return result;
}

HolisticResult Baseline::Run(const Relation& relation,
                             const EngineConfig& config, ThreadPool* pool) {
  HolisticResult result;
  {
    MUDS_TRACE_SPAN(&result.timings, "SPIDER");
    result.inds = Spider::Discover(relation, config.spill);
  }
  {
    MUDS_TRACE_SPAN(&result.timings, "DUCC");
    // DUCC builds its own PLIs: no sharing in the baseline. The same goes
    // for its evidence store — FUN samples its own below, matching the
    // baseline's no-sharing contract.
    PliCache cache(relation, config.pli_budget_bytes, pool, config.spill);
    std::unique_ptr<EvidenceStore> evidence;
    if (config.sampling.enabled() && relation.NumRows() > 1) {
      MUDS_TRACE_SPAN("evidenceBuild");
      evidence = BuildSampledEvidence(relation, &cache, config.sampling);
    }
    Ducc::Options options;
    options.seed = config.seed;
    result.uccs = Ducc::Discover(relation, &cache, options, evidence.get());
  }
  {
    MUDS_TRACE_SPAN(&result.timings, "FUN");
    FdDiscoveryResult fd_result = Fun::Discover(relation, config.sampling);
    result.fds = std::move(fd_result.fds);
  }
  return result;
}

}  // namespace muds
