#include "research/demarchi.h"

#include <string>
#include <unordered_map>

#include "setops/column_set.h"

namespace muds {

std::vector<Ind> DeMarchiInd::Discover(const Relation& relation,
                                       Stats* stats) {
  const int n = relation.NumColumns();

  // Inverted index: value → set of attributes containing it. Dictionaries
  // already hold each column's distinct values, so every (value, column)
  // pair is visited exactly once.
  std::unordered_map<std::string, ColumnSet> index;
  for (int c = 0; c < n; ++c) {
    for (const std::string& value : relation.GetColumn(c).dictionary) {
      index[value].Add(c);
    }
  }
  if (stats != nullptr) {
    stats->index_entries = static_cast<int64_t>(index.size());
  }

  // Candidate refinement: A ⊆ B requires B to occur in the attribute
  // group of every value of A.
  std::vector<ColumnSet> candidates(static_cast<size_t>(n),
                                    ColumnSet::FirstN(n));
  for (const auto& [value, group] : index) {
    (void)value;
    for (int c = group.First(); c >= 0; c = group.NextAtLeast(c + 1)) {
      candidates[static_cast<size_t>(c)] =
          candidates[static_cast<size_t>(c)].Intersect(group);
      if (stats != nullptr) ++stats->intersections;
    }
  }

  std::vector<Ind> inds;
  for (int a = 0; a < n; ++a) {
    const ColumnSet& refs = candidates[static_cast<size_t>(a)];
    for (int b = refs.First(); b >= 0; b = refs.NextAtLeast(b + 1)) {
      if (b != a) inds.push_back(Ind{a, b});
    }
  }
  Canonicalize(&inds);
  return inds;
}

}  // namespace muds
