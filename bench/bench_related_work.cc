// Related-work comparison (§7): why the paper builds on SPIDER and DUCC.
//
//   * IND: SPIDER vs. De Marchi's inverted index. SPIDER discards
//     attributes early during one sorted merge; the inverted index touches
//     every (value, attribute-group) entry.
//   * UCC: DUCC vs. a GORDIAN-style row-based algorithm (maximal non-UCCs
//     from agree sets, then hitting sets) vs. an HCA-style column-based
//     level-wise algorithm. §7: GORDIAN "is costly if the number of
//     maximal non-UCCs is large"; HCA-style checks "are costly"; DUCC's
//     random walk avoids both.

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "data/preprocess.h"
#include "ind/spider.h"
#include "pli/pli_cache.h"
#include "research/demarchi.h"
#include "research/related_work.h"
#include "ucc/ducc.h"
#include "workload/generators.h"

namespace {

using namespace muds;

void CompareInd(const char* label, const Relation& relation) {
  Timer spider_timer;
  const auto spider = Spider::Discover(relation);
  const double spider_s = spider_timer.ElapsedSeconds();

  Timer demarchi_timer;
  const auto demarchi = DeMarchiInd::Discover(relation);
  const double demarchi_s = demarchi_timer.ElapsedSeconds();

  std::printf("%-18s %8zu %12.4f %12.4f %10s\n", label, spider.size(),
              spider_s, demarchi_s,
              spider == demarchi ? "agree" : "MISMATCH!");
}

void CompareUcc(const char* label, const Relation& raw, uint64_t seed) {
  Relation relation = DeduplicateRows(raw).relation;

  Timer ducc_timer;
  PliCache cache(relation);
  Ducc::Options options;
  options.seed = seed;
  const auto ducc = Ducc::Discover(relation, &cache, options);
  const double ducc_s = ducc_timer.ElapsedSeconds();

  Timer gordian_timer;
  GordianStyleUcc::Stats gordian_stats;
  const auto gordian = GordianStyleUcc::Discover(relation, &gordian_stats);
  const double gordian_s = gordian_timer.ElapsedSeconds();

  Timer hca_timer;
  HcaStyleUcc::Stats hca_stats;
  const auto hca = HcaStyleUcc::Discover(relation, &hca_stats);
  const double hca_s = hca_timer.ElapsedSeconds();

  const bool agree = ducc == gordian && ducc == hca;
  std::printf("%-18s %8zu %12.4f %12.4f %12.4f %10s\n", label, ducc.size(),
              ducc_s, gordian_s, hca_s, agree ? "agree" : "MISMATCH!");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const int scale = args.full ? 4 : 1;

  std::printf("IND discovery: SPIDER vs. De Marchi inverted index\n");
  std::printf("%-18s %8s %12s %12s %10s\n", "dataset", "INDs", "SPIDER[s]",
              "DeMarchi[s]", "check");
  bench::PrintRule(66);
  CompareInd("uniprot-like",
             MakeUniprotLike(20000 * scale, 12, args.seed));
  CompareInd("ncvoter-like", MakeNcvoterLike(20000 * scale, 20, args.seed));
  CompareInd("high-cardinality",
             MakeCategorical(50000 * scale,
                             {40000, 35000, 30000, 25000, 20000, 15000},
                             args.seed, "highcard"));

  std::printf("\nUCC discovery: DUCC vs. GORDIAN-style vs. HCA-style\n");
  std::printf("%-18s %8s %12s %12s %12s %10s\n", "dataset", "UCCs",
              "DUCC[s]", "Gordian[s]", "HCA[s]", "check");
  bench::PrintRule(78);
  // Duplicate-heavy, low-cardinality: many agreeing row pairs — the
  // GORDIAN-style pair enumeration degrades quadratically (§7's critique).
  CompareUcc("low-cardinality",
             MakeCategorical(600 * scale, {4, 3, 4, 2, 3, 4, 3, 2, 4, 3},
                             args.seed, "lowcard"),
             args.seed);
  // High-level UCCs: HCA-style must generate exponentially many level-wise
  // candidates while DUCC's walk jumps.
  CompareUcc("ionosphere-like", MakeIonosphereLike(351, 16, args.seed),
             args.seed);
  CompareUcc("ncvoter-like", MakeNcvoterLike(1500 * scale, 16, args.seed),
             args.seed);
  CompareUcc("uniprot-like", MakeUniprotLike(4000 * scale, 10, args.seed),
             args.seed);
  return 0;
}
