#ifndef MUDS_RESEARCH_SEARCH_SPACE_H_
#define MUDS_RESEARCH_SEARCH_SPACE_H_

#include <cstdint>

#include "common/check.h"

namespace muds {

/// §2.4's search-space arithmetic: the candidate counts that motivate the
/// holistic design (IND discovery is quadratic and can run "as a byproduct
/// in the starting phase"; UCCs and FDs dominate with exponential spaces).
/// All functions require 0 <= n <= 58 so the counts fit in int64_t.

/// Unary IND candidates in a relation with n attributes: n·(n-1).
inline int64_t NumUnaryIndCandidates(int n) {
  MUDS_CHECK(n >= 0 && n <= 58);
  return static_cast<int64_t>(n) * (n - 1 < 0 ? 0 : n - 1);
}

/// UCC candidates: all non-empty attribute sets, 2^n - 1.
inline int64_t NumUccCandidates(int n) {
  MUDS_CHECK(n >= 0 && n <= 58);
  return (int64_t{1} << n) - 1;
}

/// FD candidates: the lattice edges above level 1,
/// Σ_{k=1..n} C(n,k)·(n-k) = n·2^(n-1) - n (the full hypercube's n·2^(n-1)
/// edges minus the n edges leaving the empty set).
inline int64_t NumFdCandidates(int n) {
  MUDS_CHECK(n >= 0 && n <= 58);
  if (n == 0) return 0;
  return static_cast<int64_t>(n) * (int64_t{1} << (n - 1)) - n;
}

}  // namespace muds

#endif  // MUDS_RESEARCH_SEARCH_SPACE_H_
