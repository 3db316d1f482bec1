#include "ucc/lattice_traversal.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "data/metadata.h"

namespace muds {

LatticeTraversal::LatticeTraversal(ColumnSet universe, Predicate predicate,
                                   Options options)
    : universe_(universe),
      predicate_(std::move(predicate)),
      options_(std::move(options)),
      rng_(options_.seed) {
  for (const ColumnSet& set : options_.known_positive) {
    MUDS_DCHECK(set.IsSubsetOf(universe_));
    known_positives_.Insert(set);
  }
  for (const ColumnSet& set : options_.known_negative) {
    MUDS_DCHECK(set.IsSubsetOf(universe_));
    negatives_.Insert(set);
  }
}

bool LatticeTraversal::KnownPositive(const ColumnSet& node) const {
  return known_positives_.ContainsSubsetOf(node);
}

bool LatticeTraversal::KnownNegative(const ColumnSet& node) const {
  return node.Empty() || negatives_.ContainsSupersetOf(node);
}

LatticeTraversal::Truth LatticeTraversal::Classify(const ColumnSet& node) {
  if (KnownPositive(node)) return Truth::kPositive;
  if (KnownNegative(node)) return Truth::kNegative;
  ++stats_.predicate_calls;
  if (predicate_(node)) {
    known_positives_.Insert(node);
    return Truth::kPositive;
  }
  negatives_.Insert(node);
  return Truth::kNegative;
}

bool LatticeTraversal::TryConfirmMinimalPositive(const ColumnSet& node,
                                                 ColumnSet* positive_subset) {
  // Examine direct subsets in random order so repeated descents explore
  // different branches (the DUCC random-walk behavior).
  std::vector<int> columns = node.ToIndices();
  for (size_t i = columns.size(); i > 1; --i) {
    std::swap(columns[i - 1],
              columns[static_cast<size_t>(rng_.NextBelow(i))]);
  }
  for (int c : columns) {
    const ColumnSet subset = node.Without(c);
    if (subset.Empty()) continue;  // The empty set never satisfies P.
    if (Classify(subset) == Truth::kPositive) {
      *positive_subset = subset;
      return false;
    }
  }
  // Every direct subset is negative: `node` is a minimal positive.
  minimal_positives_.Insert(node);
  known_positives_.Insert(node);
  return true;
}

void LatticeTraversal::ConfirmMaximalNegative(ColumnSet node) {
  for (;;) {
    bool climbed = false;
    std::vector<int> columns = universe_.Difference(node).ToIndices();
    for (size_t i = columns.size(); i > 1; --i) {
      std::swap(columns[i - 1],
                columns[static_cast<size_t>(rng_.NextBelow(i))]);
    }
    for (int c : columns) {
      const ColumnSet superset = node.With(c);
      if (Classify(superset) == Truth::kNegative) {
        node = superset;
        climbed = true;
        break;
      }
    }
    if (!climbed) {
      negatives_.Insert(node);
      return;
    }
  }
}

void LatticeTraversal::WalkFrom(ColumnSet seed) {
  // Depth-first boundary walk (DUCC's random walk, §2.2): descend from
  // satisfying nodes toward minimal positives, climb from violating nodes
  // toward maximal negatives, and keep the unexplored sibling supersets on
  // a stack so the whole positive/negative boundary gets visited. Holes —
  // nodes skipped because up- and downward pruning overlap — are found by
  // FillHoles afterwards.
  std::vector<ColumnSet> stack = {seed};
  while (!stack.empty()) {
    ColumnSet node = stack.back();
    stack.pop_back();
    ++stats_.walk_steps;
    if (minimal_positives_.ContainsSubsetOf(node)) continue;
    if (negatives_.ContainsSupersetOf(node)) continue;
    if (Classify(node) == Truth::kPositive) {
      // Descend until a minimal positive is confirmed.
      ColumnSet down;
      while (!TryConfirmMinimalPositive(node, &down)) node = down;
      continue;
    }
    if (node == universe_) {
      negatives_.Insert(node);
      continue;
    }
    // Negative: queue every direct superset that is not already known
    // positive, in random order. If all supersets are positive, `node` is
    // a maximal negative. One batched trie traversal answers the
    // known-positive query for every extension at once (no knowledge is
    // inserted between the queries, so this is equivalent to — and cheaper
    // than — one ContainsSubsetOf per candidate).
    batch_extras_.clear();
    for (int c = universe_.First(); c >= 0; c = universe_.NextAtLeast(c + 1)) {
      if (!node.Contains(c)) batch_extras_.push_back(c);
    }
    known_positives_.ContainsSubsetOfEach(node, batch_extras_, &batch_known_);
    std::vector<int> candidates;
    for (size_t i = 0; i < batch_extras_.size(); ++i) {
      if (!batch_known_[i]) candidates.push_back(batch_extras_[i]);
    }
    if (candidates.empty()) {
      negatives_.Insert(node);
      continue;
    }
    for (size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1],
                candidates[static_cast<size_t>(rng_.NextBelow(i))]);
    }
    for (int c : candidates) stack.push_back(node.With(c));
  }
}

void LatticeTraversal::DescendConfirm(ColumnSet node) {
  ColumnSet down;
  while (!TryConfirmMinimalPositive(node, &down)) node = down;
}

void LatticeTraversal::FillHoles() {
  // The random walk's combination of upward and downward pruning can leave
  // unvisited nodes (§2.2). One branch-and-bound sweep finds and classifies
  // all of them, which both completes and certifies the result.
  //
  // Invariant making a single persistent sweep sound: when a node was
  // expanded, its children were "current + c" for every c outside one
  // covering negative N. Any hole above the node must avoid N (N stays
  // negative forever), so it contains such a c — the expansion remains
  // complete as knowledge grows, and states never need revisiting.
  std::unordered_set<ColumnSet, ColumnSetHash> visited;
  std::vector<ColumnSet> stack = {ColumnSet()};
  visited.insert(ColumnSet());
  while (!stack.empty()) {
    ColumnSet current = stack.back();
    stack.pop_back();
    // Supersets of confirmed minimal positives cannot be holes, nor can
    // anything above them.
    if (minimal_positives_.ContainsSubsetOf(current)) continue;
    ColumnSet covering;
    if (!negatives_.FindSupersetOf(current, &covering)) {
      // Unclassified node found.
      ++stats_.holes_checked;
      if (!current.Empty() && Classify(current) == Truth::kPositive) {
        // All supersets are positive and non-minimal: nothing to expand.
        DescendConfirm(current);
        continue;
      }
      // The empty set counts as negative by convention; climb to a maximal
      // negative so the expansion below escapes as much as possible.
      ConfirmMaximalNegative(current);
      const bool covered = negatives_.FindSupersetOf(current, &covering);
      MUDS_CHECK(covered);
    }
    // Holes above `current` must avoid the covering negative.
    const ColumnSet escape = universe_.Difference(covering);
    for (int c = escape.First(); c >= 0; c = escape.NextAtLeast(c + 1)) {
      if (current.Contains(c)) continue;
      const ColumnSet child = current.With(c);
      if (visited.insert(child).second) stack.push_back(child);
    }
  }
}

std::vector<ColumnSet> LatticeTraversal::Run() {
  if (!universe_.Empty()) {
    // Seed the walk from every single column, in random order (DUCC starts
    // at the bottom of the lattice).
    std::vector<int> seeds = universe_.ToIndices();
    for (size_t i = seeds.size(); i > 1; --i) {
      std::swap(seeds[i - 1], seeds[static_cast<size_t>(rng_.NextBelow(i))]);
    }
    for (int c : seeds) WalkFrom(ColumnSet::Single(c));
    FillHoles();
  }
  std::vector<ColumnSet> result = minimal_positives_.CollectAll();
  Canonicalize(&result);
  return result;
}

}  // namespace muds
