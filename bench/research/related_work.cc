#include "research/related_work.h"

#include <span>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "data/metadata.h"
#include "pli/pli_cache.h"
#include "setops/antichain.h"
#include "setops/hitting_set.h"

namespace muds {

namespace {

// Columns on which two rows coincide.
ColumnSet AgreeSet(const Relation& relation, RowId a, RowId b) {
  ColumnSet agree;
  for (int c = 0; c < relation.NumColumns(); ++c) {
    if (relation.Code(a, c) == relation.Code(b, c)) agree.Add(c);
  }
  return agree;
}

struct RowPairHash {
  size_t operator()(const std::pair<RowId, RowId>& p) const {
    return static_cast<size_t>(p.first) * 0x9e3779b9u +
           static_cast<size_t>(p.second);
  }
};

}  // namespace

std::vector<ColumnSet> GordianStyleUcc::Discover(const Relation& relation,
                                                 Stats* stats) {
  if (relation.NumRows() <= 1) return {ColumnSet()};
  const ColumnSet universe = relation.ActiveColumns();

  // Candidate pairs: rows sharing a cluster in some single-column
  // partition. Every pair with a non-empty agree set shares at least one
  // column value, so this enumeration is exhaustive.
  MaximalSetCollection maximal_agree;
  std::unordered_set<std::pair<RowId, RowId>, RowPairHash> seen;
  for (int c = universe.First(); c >= 0; c = universe.NextAtLeast(c + 1)) {
    const Pli pli = Pli::FromColumn(relation.GetColumn(c), relation.NumRows());
    for (int64_t k = 0; k < pli.NumClusters(); ++k) {
      const std::span<const RowId> cluster = pli.cluster(k);
      for (size_t i = 0; i < cluster.size(); ++i) {
        for (size_t j = i + 1; j < cluster.size(); ++j) {
          const std::pair<RowId, RowId> pair{cluster[i], cluster[j]};
          if (!seen.insert(pair).second) continue;
          if (stats != nullptr) ++stats->pairs_examined;
          maximal_agree.Insert(
              AgreeSet(relation, pair.first, pair.second)
                  .Intersect(universe));
        }
      }
    }
  }

  // Minimal UCCs = minimal hitting sets of the complements of the maximal
  // non-UCCs (the agree sets). With no agreeing pair at all, every single
  // active column is unique.
  std::vector<ColumnSet> complements;
  for (const ColumnSet& agree : maximal_agree.CollectAll()) {
    complements.push_back(universe.Difference(agree));
  }
  if (stats != nullptr) {
    stats->maximal_non_uccs =
        static_cast<int64_t>(complements.size());
  }
  std::vector<ColumnSet> uccs;
  if (complements.empty()) {
    for (int c = universe.First(); c >= 0; c = universe.NextAtLeast(c + 1)) {
      uccs.push_back(ColumnSet::Single(c));
    }
  } else {
    uccs = MinimalHittingSets(complements, relation.NumColumns());
  }
  Canonicalize(&uccs);
  return uccs;
}

std::vector<ColumnSet> HcaStyleUcc::Discover(const Relation& relation,
                                             Stats* stats) {
  if (relation.NumRows() <= 1) return {ColumnSet()};
  const int64_t num_rows = relation.NumRows();
  PliCache cache(relation);

  MinimalSetCollection minimal;
  // Level 1: every active column; non-uniques seed the apriori generation.
  std::vector<ColumnSet> level;
  const ColumnSet universe = relation.ActiveColumns();
  for (int c = universe.First(); c >= 0; c = universe.NextAtLeast(c + 1)) {
    if (stats != nullptr) ++stats->uniqueness_checks;
    if (cache.Get(ColumnSet::Single(c))->IsUnique()) {
      minimal.Insert(ColumnSet::Single(c));
    } else {
      level.push_back(ColumnSet::Single(c));
    }
  }

  while (!level.empty()) {
    // Apriori join: combine non-uniques sharing all but their last column.
    std::vector<ColumnSet> next;
    std::unordered_set<ColumnSet, ColumnSetHash> level_set(level.begin(),
                                                           level.end());
    std::unordered_set<ColumnSet, ColumnSetHash> generated;
    for (const ColumnSet& left : level) {
      const int last = left.ToIndices().back();
      for (const ColumnSet& right : level) {
        const int candidate_col = right.ToIndices().back();
        if (candidate_col <= last) continue;
        if (left.Without(last) != right.Without(candidate_col)) continue;
        const ColumnSet candidate = left.With(candidate_col);
        if (!generated.insert(candidate).second) continue;
        if (stats != nullptr) ++stats->candidates_generated;
        // All direct subsets must be known non-unique (supersets of found
        // UCCs cannot be minimal).
        if (minimal.ContainsSubsetOf(candidate)) continue;
        bool viable = true;
        for (int c = candidate.First(); viable && c >= 0;
             c = candidate.NextAtLeast(c + 1)) {
          if (level_set.find(candidate.Without(c)) == level_set.end()) {
            viable = false;
          }
        }
        if (!viable) continue;
        // HCA's statistical pruning: the distinct count of a combination
        // is at most the product of its columns' cardinalities; if that
        // cannot reach the row count, skip the uniqueness check.
        int64_t max_distinct = 1;
        for (int c = candidate.First(); c >= 0;
             c = candidate.NextAtLeast(c + 1)) {
          max_distinct *= relation.Cardinality(c);
          if (max_distinct >= num_rows) break;
        }
        if (max_distinct < num_rows) {
          if (stats != nullptr) ++stats->statistically_pruned;
          next.push_back(candidate);
          continue;
        }
        if (stats != nullptr) ++stats->uniqueness_checks;
        if (cache.Get(candidate)->IsUnique()) {
          minimal.Insert(candidate);
        } else {
          next.push_back(candidate);
        }
      }
    }
    level = std::move(next);
  }

  std::vector<ColumnSet> uccs = minimal.CollectAll();
  Canonicalize(&uccs);
  return uccs;
}

}  // namespace muds
