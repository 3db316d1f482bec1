#include "fd/fun.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/trace.h"
#include "core/evidence.h"
#include "pli/position_list_index.h"
#include "setops/antichain.h"

namespace muds {

namespace {

struct Node {
  ColumnSet set;
  std::shared_ptr<const Pli> pli;
  int64_t cardinality = 0;
  bool is_key = false;
};

// Memo of |X|r for every column combination whose cardinality has been
// computed (free sets) or inferred (non-free sets).
using CardMap = std::unordered_map<ColumnSet, int64_t, ColumnSetHash>;

// FUN's cardinality inference: for a non-free set X,
// |X|r = max over direct subsets X' of |X'|r. Free sets always have a memo
// entry (they are all materialized level-wise), so the recursion bottoms
// out without touching a PLI.
int64_t InferCardinality(const ColumnSet& set, CardMap* cards) {
  auto it = cards->find(set);
  if (it != cards->end()) return it->second;
  MUDS_DCHECK(set.Count() >= 1);
  if (set.Count() == 1) {
    // Single active columns are always materialized; reaching here means
    // the caller asked about a constant (inactive) column.
    MUDS_CHECK_MSG(false, "cardinality of unmaterialized single column");
  }
  int64_t best = 0;
  for (int a = set.First(); a >= 0; a = set.NextAtLeast(a + 1)) {
    best = std::max(best, InferCardinality(set.Without(a), cards));
  }
  cards->emplace(set, best);
  return best;
}

}  // namespace

FdDiscoveryResult Fun::Discover(const Relation& relation,
                                const SamplingConfig& sampling) {
  FdWorkCounts work("fun");
  FdDiscoveryResult result;
  result.fds = ConstantColumnFds(relation);
  if (relation.NumRows() <= 1) {
    result.uccs = {ColumnSet()};
    Canonicalize(&result.fds);
    return result;
  }
  const ColumnSet universe = relation.ActiveColumns();
  if (universe.Empty()) {
    Canonicalize(&result.fds);
    return result;
  }
  const int64_t num_rows = relation.NumRows();

  CardMap cards;
  cards.emplace(ColumnSet(), 1);

  // Candidate FDs detected on free sets; minimized per right-hand side at
  // the end (minimal FD left-hand sides are always free sets).
  std::vector<Fd> candidate_fds;

  // Level 1: all active single columns are free.
  std::vector<Node> level;
  for (int c = universe.First(); c >= 0; c = universe.NextAtLeast(c + 1)) {
    Node node;
    node.set = ColumnSet::Single(c);
    node.pli = std::make_shared<Pli>(
        Pli::FromColumn(relation.GetColumn(c), relation.NumRows()));
    node.cardinality = node.pli->DistinctCount();
    node.is_key = node.cardinality == num_rows;
    cards.emplace(node.set, node.cardinality);
    level.push_back(std::move(node));
  }

  // Sampling-first pre-validation (refutation-only): a private evidence
  // store over the level-1 PLIs. Only the Lemma-1 checks are skippable —
  // the lattice's PLI intersects must still run, because cardinalities
  // feed the freeness classification of every superset.
  std::optional<EvidenceStore> evidence;
  if (sampling.enabled()) {
    MUDS_TRACE_SPAN("evidenceBuild");
    evidence.emplace(relation);
    std::vector<std::pair<int, const Pli*>> column_plis;
    for (const Node& node : level) {
      column_plis.emplace_back(node.set.First(), node.pli.get());
    }
    SampleEvidence(sampling, column_plis, &*evidence);
  }

  while (!level.empty()) {
    // --- Generate and classify the next level's candidates. ---
    // Join free non-key sets sharing all but their last column; a candidate
    // is materialized only if all its direct subsets are free non-keys in
    // the current level (supersets of keys and of non-free sets are
    // non-free, and their cardinalities are inferable).
    std::unordered_map<ColumnSet, size_t, ColumnSetHash> current_index;
    for (size_t i = 0; i < level.size(); ++i) {
      current_index.emplace(level[i].set, i);
    }
    std::unordered_map<ColumnSet, std::vector<size_t>, ColumnSetHash> groups;
    for (size_t i = 0; i < level.size(); ++i) {
      if (level[i].is_key) continue;
      std::vector<int> indices = level[i].set.ToIndices();
      groups[level[i].set.Without(indices.back())].push_back(i);
    }

    std::vector<Node> next;
    for (auto& [prefix, members] : groups) {
      (void)prefix;
      std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
        return level[a].set < level[b].set;
      });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const Node& left = level[members[i]];
          const Node& right = level[members[j]];
          const ColumnSet candidate = left.set.Union(right.set);
          bool viable = true;
          for (int a = candidate.First(); viable && a >= 0;
               a = candidate.NextAtLeast(a + 1)) {
            auto it = current_index.find(candidate.Without(a));
            if (it == current_index.end() || level[it->second].is_key) {
              viable = false;
            }
          }
          if (!viable) continue;
          Node node;
          node.set = candidate;
          ++work.intersects;
          node.pli = std::make_shared<Pli>(left.pli->Intersect(*right.pli));
          node.cardinality = node.pli->DistinctCount();
          cards.emplace(node.set, node.cardinality);
          next.push_back(std::move(node));
        }
      }
    }

    // Keep only free candidates for the next level; non-free candidates
    // contributed their cardinality to the memo and are dropped.
    std::vector<Node> next_free;
    for (Node& node : next) {
      bool free = true;
      for (int a = node.set.First(); free && a >= 0;
           a = node.set.NextAtLeast(a + 1)) {
        if (cards.at(node.set.Without(a)) == node.cardinality) free = false;
      }
      if (!free) continue;
      node.is_key = node.cardinality == num_rows;
      next_free.push_back(std::move(node));
    }

    // --- Detect FDs on this level's free sets (Lemma 1). ---
    // card(X ∪ {A}) is now available for every A: either it was just
    // computed for a materialized candidate, or X ∪ {A} is non-free and its
    // cardinality is inferred from subsets.
    for (const Node& node : level) {
      const ColumnSet others = universe.Difference(node.set);
      // One batched probe refutes every evidence-covered right-hand side
      // of this node at once; refuted candidates are definite non-FDs
      // (the Lemma-1 comparison would fail), so skipping them changes no
      // output. Their cardinality memo entries are simply computed later,
      // on demand, if a superset's inference needs them.
      ColumnSet refuted;
      if (evidence) refuted = evidence->RefutedRhs(node.set);
      for (int a = others.First(); a >= 0; a = others.NextAtLeast(a + 1)) {
        if (refuted.Contains(a)) continue;
        ++work.checks;
        if (InferCardinality(node.set.With(a), &cards) == node.cardinality) {
          candidate_fds.push_back(Fd{node.set, a});
        }
      }
      if (node.is_key) result.uccs.push_back(node.set);
    }

    level = std::move(next_free);
  }

  // --- Minimize: keep, per right-hand side, the minimal left-hand sides. ---
  std::unordered_map<int, MinimalSetCollection> minimal_lhs;
  std::sort(candidate_fds.begin(), candidate_fds.end(),
            [](const Fd& a, const Fd& b) {
              return a.lhs.Count() < b.lhs.Count();
            });
  for (const Fd& fd : candidate_fds) {
    if (!minimal_lhs[fd.rhs].ContainsSubsetOf(fd.lhs)) {
      minimal_lhs[fd.rhs].Insert(fd.lhs);
      result.fds.push_back(fd);
    }
  }

  Canonicalize(&result.fds);
  Canonicalize(&result.uccs);
  return result;
}

}  // namespace muds
