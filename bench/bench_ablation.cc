// Ablation study (§6.5 and DESIGN.md): quantifies MUDS' design choices on
// datasets with different "favorable pruning" properties.
//
//   a) §5.4 prefix tree vs. naive linear scans for UCC subset look-ups.
//   b) Knowledge pruning in the shadowed phase (skip candidates dominated
//      by stored FDs) on vs. off.
//   c) The paper's Algorithm 2-4 shadowed reconstruction on vs. off ahead
//      of the exhaustive certification sweep.
//   d) §6.5's dataset criteria: the same algorithms on a dataset whose
//      minimal UCCs sit low vs. high in the lattice.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "core/holistic_fun.h"
#include "core/muds.h"
#include "data/preprocess.h"
#include "research/ucc_inference.h"
#include "workload/generators.h"

namespace {

using namespace muds;

double TimeMuds(const Relation& relation, const EngineConfig& config,
                const MudsOptions& options, size_t* fds = nullptr) {
  Timer timer;
  MudsResult result = Muds::Run(relation, config, options);
  if (fds != nullptr) *fds = result.fds.size();
  return timer.ElapsedSeconds();
}

void RunAblation(const char* label, const Relation& raw, uint64_t seed) {
  Relation relation = DeduplicateRows(raw).relation;

  EngineConfig config;
  config.seed = seed;

  MudsOptions base;

  MudsOptions no_tree = base;
  no_tree.use_prefix_tree = false;

  MudsOptions no_knowledge = base;
  no_knowledge.shadowed_knowledge_pruning = false;

  MudsOptions no_paper_phase = base;
  no_paper_phase.run_paper_shadowed_phase = false;

  size_t fds = 0;
  const double t_base = TimeMuds(relation, config, base, &fds);
  const double t_no_tree = TimeMuds(relation, config, no_tree);
  const double t_no_knowledge = TimeMuds(relation, config, no_knowledge);
  const double t_no_paper = TimeMuds(relation, config, no_paper_phase);

  std::printf("%-18s %6zu %10.3f %14.3f %16.3f %16.3f\n", label, fds,
              t_base, t_no_tree, t_no_knowledge, t_no_paper);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const int scale = args.full ? 2 : 1;

  std::printf("MUDS ablations (time in seconds; all variants produce "
              "identical results)\n");
  std::printf("%-18s %6s %10s %14s %16s %16s\n", "dataset", "FDs", "default",
              "no prefix tree", "no knowl. prune", "no Alg2-4 phase");
  bench::PrintRule(86);

  // §6.5 criterion sweep: UCCs low in the lattice (high-cardinality
  // columns) vs. high in the lattice (low-cardinality columns).
  RunAblation("uccs-low",
              MakeCategorical(300 * scale,
                              {250, 260, 270, 240, 230, 220, 210, 200, 190,
                               180, 170, 160},
                              args.seed, "uccs_low"),
              args.seed);
  RunAblation("uccs-high",
              MakeCategorical(300 * scale,
                              {3, 3, 2, 4, 3, 2, 3, 4, 2, 3, 4, 2},
                              args.seed, "uccs_high"),
              args.seed);
  RunAblation("ionosphere-like",
              MakeIonosphereLike(351, args.full ? 18 : 14, args.seed),
              args.seed);
  RunAblation("ncvoter-like",
              MakeNcvoterLike(3000 * scale, 16, args.seed), args.seed);
  RunAblation("uniprot-like",
              MakeUniprotLike(10000 * scale, 10, args.seed), args.seed);

  // §3.1, "FDs first": the holistic-design alternative the paper declines
  // because UCC inference from FDs "introduces an additional overhead"
  // while FUN discovers the same UCCs for free. Measured head to head.
  std::printf("\nFDs-first (§3.1): UCC inference overhead vs. Holistic "
              "FUN's free byproduct\n");
  std::printf("%-18s %10s %14s %10s\n", "dataset", "HFUN[s]",
              "+inference[s]", "UCCs");
  bench::PrintRule(58);
  const auto fds_first = [&](const char* label, const Relation& raw) {
    Relation relation = DeduplicateRows(raw).relation;
    Timer hfun_timer;
    HolisticResult hfun = HolisticFun::Run(relation);
    const double hfun_s = hfun_timer.ElapsedSeconds();
    Timer inference_timer;
    const auto inferred =
        InferUccsFromFds(hfun.fds, relation.NumColumns());
    const double inference_s = inference_timer.ElapsedSeconds();
    std::printf("%-18s %10.3f %14.3f %10zu %s\n", label, hfun_s,
                inference_s, inferred.size(),
                inferred == hfun.uccs ? "" : "MISMATCH!");
  };
  fds_first("ncvoter-like", MakeNcvoterLike(3000 * scale, 16, args.seed));
  fds_first("ionosphere-like",
            MakeIonosphereLike(351, args.full ? 18 : 14, args.seed));
  return 0;
}
