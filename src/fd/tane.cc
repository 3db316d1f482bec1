#include "fd/tane.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "pli/position_list_index.h"

namespace muds {

namespace {

struct Node {
  ColumnSet set;
  std::shared_ptr<const Pli> pli;
  // Candidate right-hand sides C+(X). Meaningful after the dependency
  // computation step of the node's level.
  ColumnSet cplus;
  bool is_key = false;
  bool deleted = false;
};

using LevelMap = std::unordered_map<ColumnSet, size_t, ColumnSetHash>;

}  // namespace

FdDiscoveryResult Tane::Discover(const Relation& relation) {
  FdWorkCounts work("tane");
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

  // Level 1: single active columns. C+(∅) = R, so C+({A}) = R; the FD
  // ∅ → A never holds for active columns (cardinality >= 2).
  std::vector<Node> level;
  LevelMap level_index;
  for (int c = universe.First(); c >= 0; c = universe.NextAtLeast(c + 1)) {
    Node node;
    node.set = ColumnSet::Single(c);
    node.pli = std::make_shared<Pli>(
        Pli::FromColumn(relation.GetColumn(c), relation.NumRows()));
    node.cplus = universe;
    level_index.emplace(node.set, level.size());
    level.push_back(std::move(node));
  }

  std::vector<Node> prev_level;
  LevelMap prev_index;

  // Scratch for the batched key-FD minimality checks, reused across nodes.
  std::vector<const Column*> batch_columns;
  std::vector<int> batch_indices;
  std::vector<uint8_t> batch_valid;

  const auto prev_node = [&](const ColumnSet& set) -> const Node& {
    auto it = prev_index.find(set);
    MUDS_CHECK_MSG(it != prev_index.end(), "missing TANE lattice node");
    return prev_level[it->second];
  };

  for (int depth = 1; !level.empty(); ++depth) {
    // --- Compute dependencies (for depth >= 2; level 1 is initialized). ---
    if (depth >= 2) {
      for (Node& node : level) {
        ColumnSet cplus;
        bool first = true;
        for (int a = node.set.First(); a >= 0;
             a = node.set.NextAtLeast(a + 1)) {
          const Node& subset = prev_node(node.set.Without(a));
          cplus = first ? subset.cplus : cplus.Intersect(subset.cplus);
          first = false;
        }
        const ColumnSet check = node.set.Intersect(cplus);
        for (int a = check.First(); a >= 0; a = check.NextAtLeast(a + 1)) {
          const Node& subset = prev_node(node.set.Without(a));
          ++work.checks;
          if (subset.pli->DistinctCount() == node.pli->DistinctCount()) {
            result.fds.push_back(Fd{node.set.Without(a), a});
            cplus.Remove(a);
            // Remove all B in R \ X.
            cplus = cplus.Intersect(node.set);
          }
        }
        node.cplus = cplus;
      }
    }

    // --- Prune. ---
    for (Node& node : level) {
      if (node.cplus.Empty()) {
        node.deleted = true;
        continue;
      }
      if (node.pli->IsUnique()) {
        node.is_key = true;
        result.uccs.push_back(node.set);
        // Key FDs: X → A for A in C+(X) \ X, kept only when minimal (no
        // direct subset already determines A). Each direct subset's PLI
        // validates every still-minimal candidate in one batched pass;
        // candidates drop out as soon as some subset determines them.
        ColumnSet remaining = node.cplus.Difference(node.set);
        for (int b = node.set.First(); b >= 0 && !remaining.Empty();
             b = node.set.NextAtLeast(b + 1)) {
          const ColumnSet sub = node.set.Without(b);
          if (sub.Empty()) continue;  // ∅ never determines an active column.
          batch_columns.clear();
          batch_indices.clear();
          for (int a = remaining.First(); a >= 0;
               a = remaining.NextAtLeast(a + 1)) {
            batch_columns.push_back(&relation.GetColumn(a));
            batch_indices.push_back(a);
          }
          work.checks += static_cast<int64_t>(batch_indices.size());
          prev_node(sub).pli->RefinesAll(batch_columns, &batch_valid);
          for (size_t i = 0; i < batch_indices.size(); ++i) {
            if (batch_valid[i]) remaining.Remove(batch_indices[i]);
          }
        }
        for (int a = remaining.First(); a >= 0;
             a = remaining.NextAtLeast(a + 1)) {
          result.fds.push_back(Fd{node.set, a});
        }
        node.deleted = true;
      }
    }

    // --- Generate the next level (prefix join over surviving nodes). ---
    std::unordered_map<ColumnSet, std::vector<size_t>, ColumnSetHash> groups;
    for (size_t i = 0; i < level.size(); ++i) {
      if (level[i].deleted) continue;
      std::vector<int> indices = level[i].set.ToIndices();
      ColumnSet prefix = level[i].set.Without(indices.back());
      groups[prefix].push_back(i);
    }

    std::vector<Node> next;
    LevelMap next_index;
    LevelMap surviving;
    for (size_t i = 0; i < level.size(); ++i) {
      if (!level[i].deleted) surviving.emplace(level[i].set, i);
    }
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
          if (candidate.Count() != depth + 1) continue;
          // All direct subsets must have survived pruning.
          bool viable = true;
          for (int a = candidate.First(); viable && a >= 0;
               a = candidate.NextAtLeast(a + 1)) {
            if (surviving.find(candidate.Without(a)) == surviving.end()) {
              viable = false;
            }
          }
          if (!viable) continue;
          Node node;
          node.set = candidate;
          ++work.intersects;
          node.pli = std::make_shared<Pli>(left.pli->Intersect(*right.pli));
          next_index.emplace(node.set, next.size());
          next.push_back(std::move(node));
        }
      }
    }

    prev_level = std::move(level);
    prev_index = std::move(level_index);
    level = std::move(next);
    level_index = std::move(next_index);
  }

  Canonicalize(&result.fds);
  Canonicalize(&result.uccs);
  return result;
}

}  // namespace muds
