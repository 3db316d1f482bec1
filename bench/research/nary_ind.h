#ifndef MUDS_RESEARCH_NARY_IND_H_
#define MUDS_RESEARCH_NARY_IND_H_

#include <string>
#include <vector>

#include "data/relation.h"

namespace muds {

/// An n-ary inclusion dependency X ⊆ Y between two equally long lists of
/// distinct attributes: every projection tuple of X also occurs as a
/// projection tuple of Y. Canonical form: `dependent` sorted ascending
/// (an IND is invariant under simultaneous permutation of both sides).
struct NaryInd {
  std::vector<int> dependent;
  std::vector<int> referenced;

  int Arity() const { return static_cast<int>(dependent.size()); }

  friend bool operator==(const NaryInd& a, const NaryInd& b) {
    return a.dependent == b.dependent && a.referenced == b.referenced;
  }
  friend bool operator<(const NaryInd& a, const NaryInd& b) {
    if (a.dependent != b.dependent) return a.dependent < b.dependent;
    return a.referenced < b.referenced;
  }
};

std::string ToString(const NaryInd& ind,
                     const std::vector<std::string>& names);

/// Level-wise n-ary IND discovery within one relation — the extension §2.1
/// sets aside ("without any loss of generality, we could discover n-ary
/// INDs as well"), in the style of MIND (De Marchi et al.): SPIDER's unary
/// INDs are the first level, and level k candidates are generated
/// apriori-style from level k-1 (every (k-1)-ary projection of a valid
/// k-ary IND is itself a valid IND), then validated by tuple-set probing.
class NaryIndFinder {
 public:
  struct Options {
    Options() : max_arity(3) {}
    /// Highest arity to search (>= 1). Level sizes can grow
    /// combinatorially; the default keeps discovery tractable.
    int max_arity;
  };

  struct Stats {
    int64_t candidates_checked = 0;
    int64_t candidates_generated = 0;
  };

  /// Returns all valid INDs with arity in [1, max_arity], canonical order.
  static std::vector<NaryInd> Discover(const Relation& relation,
                                       const Options& options = Options(),
                                       Stats* stats = nullptr);
};

/// Exhaustive reference implementation for tests (checks every candidate
/// pair of attribute lists up to the arity cap).
class BruteForceNaryInd {
 public:
  static std::vector<NaryInd> Discover(const Relation& relation,
                                       int max_arity);
};

}  // namespace muds

#endif  // MUDS_RESEARCH_NARY_IND_H_
