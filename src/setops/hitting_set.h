#ifndef MUDS_SETOPS_HITTING_SET_H_
#define MUDS_SETOPS_HITTING_SET_H_

#include <vector>

#include "setops/column_set.h"

namespace muds {

/// Enumerates all minimal hitting sets of `family` over the universe
/// {0, ..., num_columns-1}: the inclusion-minimal sets that intersect every
/// set in `family`.
///
/// Its caller is MUDS' Algorithm 3 (removeUCCs): the maximal UCC-free
/// reductions of a left-hand side are the complements of the minimal
/// hitting sets of the UCCs it contains. (The lattice traversal's hole
/// filling, which §2.2 phrases with hitting sets, is a branch-and-bound
/// sweep instead; see LatticeTraversal::FillHoles.)
///
/// If `family` contains an empty set no hitting set exists and the result is
/// empty. If `family` itself is empty, the empty set is the unique minimal
/// hitting set.
std::vector<ColumnSet> MinimalHittingSets(const std::vector<ColumnSet>& family,
                                          int num_columns);

}  // namespace muds

#endif  // MUDS_SETOPS_HITTING_SET_H_
