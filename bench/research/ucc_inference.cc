#include "research/ucc_inference.h"

#include <deque>

#include "common/check.h"
#include "setops/antichain.h"

namespace muds {

ColumnSet AttributeClosure(const ColumnSet& start, const std::vector<Fd>& fds,
                           int num_columns) {
  MUDS_CHECK(num_columns >= 0 && num_columns <= ColumnSet::kMaxColumns);
  ColumnSet closure = start;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fd& fd : fds) {
      if (!closure.Contains(fd.rhs) && fd.lhs.IsSubsetOf(closure)) {
        closure.Add(fd.rhs);
        changed = true;
      }
    }
  }
  return closure;
}

namespace {

// Greedily drops attributes while the set keeps determining everything.
ColumnSet MinimizeKey(ColumnSet key, const std::vector<Fd>& fds,
                      const ColumnSet& universe, int num_columns) {
  for (int c = key.First(); c >= 0; c = key.NextAtLeast(c + 1)) {
    if (universe.IsSubsetOf(
            AttributeClosure(key.Without(c), fds, num_columns))) {
      key.Remove(c);
    }
  }
  return key;
}

}  // namespace

std::vector<ColumnSet> InferUccsFromFds(const std::vector<Fd>& fds,
                                        int num_columns) {
  const ColumnSet universe = ColumnSet::FirstN(num_columns);

  // Lucchesi-Osborn enumeration of all minimal keys: seed with one
  // minimized key; for every found key K and FD X → a, X ∪ (K \ {a}) is
  // again a superkey — minimizing it either rediscovers a known key or
  // yields a new one. The loop closes over all minimal keys.
  MinimalSetCollection keys;
  std::deque<ColumnSet> queue;
  const ColumnSet first =
      MinimizeKey(universe, fds, universe, num_columns);
  keys.Insert(first);
  queue.push_back(first);

  while (!queue.empty()) {
    const ColumnSet key = queue.front();
    queue.pop_front();
    for (const Fd& fd : fds) {
      if (!key.Contains(fd.rhs)) continue;
      const ColumnSet candidate = fd.lhs.Union(key.Without(fd.rhs));
      if (keys.ContainsSubsetOf(candidate)) continue;
      const ColumnSet minimized =
          MinimizeKey(candidate, fds, universe, num_columns);
      if (keys.Insert(minimized)) queue.push_back(minimized);
    }
  }

  std::vector<ColumnSet> result = keys.CollectAll();
  Canonicalize(&result);
  return result;
}

}  // namespace muds
