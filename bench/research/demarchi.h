#ifndef MUDS_RESEARCH_DEMARCHI_H_
#define MUDS_RESEARCH_DEMARCHI_H_

#include <vector>

#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

/// De Marchi et al.'s unary IND discovery (§7: "constructs an inverted
/// index upon the values of all attributes to check them for inclusions").
///
/// For every distinct value the index lists the attributes containing it;
/// an attribute A can only be included in attributes that appear in the
/// attribute group of *every* value of A, so the candidate set of A is the
/// intersection of the groups of A's values. SPIDER improves on this by
/// discarding attributes early during a single sorted merge; the
/// `bench_related_work` binary measures the difference.
class DeMarchiInd {
 public:
  struct Stats {
    /// Number of (value, attribute-group) entries in the inverted index.
    int64_t index_entries = 0;
    /// Number of candidate-set intersections performed.
    int64_t intersections = 0;
  };

  /// Returns all valid unary INDs in canonical order.
  static std::vector<Ind> Discover(const Relation& relation,
                                   Stats* stats = nullptr);
};

}  // namespace muds

#endif  // MUDS_RESEARCH_DEMARCHI_H_
