#include "research/nary_ind.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>

#include "common/check.h"
#include "ind/spider.h"

namespace muds {

namespace {

// Encodes a projection tuple unambiguously (length-prefixed values, so
// separators inside values cannot collide).
std::string TupleKey(const Relation& relation, RowId row,
                     const std::vector<int>& columns) {
  std::string key;
  for (int c : columns) {
    const std::string& value = relation.Value(row, c);
    key += std::to_string(value.size());
    key += ':';
    key += value;
  }
  return key;
}

// Validates X ⊆ Y by probing the set of referenced projection tuples.
bool CheckInd(const Relation& relation, const std::vector<int>& dependent,
              const std::vector<int>& referenced) {
  std::unordered_set<std::string> tuples;
  tuples.reserve(static_cast<size_t>(relation.NumRows()) * 2);
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    tuples.insert(TupleKey(relation, row, referenced));
  }
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    if (tuples.find(TupleKey(relation, row, dependent)) == tuples.end()) {
      return false;
    }
  }
  return true;
}

// Candidate admissibility: distinct attributes per side and no position
// where both sides name the same attribute (those positions are trivially
// satisfied and excluded, as in the unary case).
bool IsProper(const std::vector<int>& dependent,
              const std::vector<int>& referenced) {
  for (size_t i = 0; i < dependent.size(); ++i) {
    if (dependent[i] == referenced[i]) return false;
  }
  std::set<int> dep(dependent.begin(), dependent.end());
  std::set<int> ref(referenced.begin(), referenced.end());
  return dep.size() == dependent.size() && ref.size() == referenced.size();
}

struct NaryIndHash {
  size_t operator()(const NaryInd& ind) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int c : ind.dependent) {
      h = (h ^ static_cast<uint64_t>(c)) * 0x100000001b3ULL;
    }
    for (int c : ind.referenced) {
      h = (h ^ static_cast<uint64_t>(c + 7919)) * 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Drops position `skip` from both sides (stays canonical: the dependent
// side remains sorted).
NaryInd Project(const NaryInd& ind, size_t skip) {
  NaryInd out;
  for (size_t i = 0; i < ind.dependent.size(); ++i) {
    if (i == skip) continue;
    out.dependent.push_back(ind.dependent[i]);
    out.referenced.push_back(ind.referenced[i]);
  }
  return out;
}

}  // namespace

std::string ToString(const NaryInd& ind,
                     const std::vector<std::string>& names) {
  std::string out = "(";
  for (size_t i = 0; i < ind.dependent.size(); ++i) {
    if (i > 0) out += ",";
    out += names[static_cast<size_t>(ind.dependent[i])];
  }
  out += ") <= (";
  for (size_t i = 0; i < ind.referenced.size(); ++i) {
    if (i > 0) out += ",";
    out += names[static_cast<size_t>(ind.referenced[i])];
  }
  out += ")";
  return out;
}

std::vector<NaryInd> NaryIndFinder::Discover(const Relation& relation,
                                             const Options& options,
                                             Stats* stats) {
  MUDS_CHECK(options.max_arity >= 1);
  std::vector<NaryInd> result;

  // Level 1: SPIDER.
  std::vector<NaryInd> level;
  for (const Ind& ind : Spider::Discover(relation)) {
    level.push_back(NaryInd{{ind.dependent}, {ind.referenced}});
  }
  result.insert(result.end(), level.begin(), level.end());

  for (int arity = 2;
       arity <= options.max_arity && !level.empty(); ++arity) {
    std::unordered_set<NaryInd, NaryIndHash> previous(level.begin(),
                                                      level.end());
    std::vector<NaryInd> next;
    std::unordered_set<NaryInd, NaryIndHash> generated;
    for (const NaryInd& base : level) {
      for (const NaryInd& unary : result) {
        if (unary.Arity() != 1) continue;
        const int a = unary.dependent[0];
        const int b = unary.referenced[0];
        // Keep the dependent side strictly increasing (canonical form) and
        // both sides duplicate-free and proper.
        if (a <= base.dependent.back()) continue;
        NaryInd candidate = base;
        candidate.dependent.push_back(a);
        candidate.referenced.push_back(b);
        if (!IsProper(candidate.dependent, candidate.referenced)) continue;
        if (!generated.insert(candidate).second) continue;
        if (stats != nullptr) ++stats->candidates_generated;
        // Apriori: every (arity-1)-ary projection must be valid.
        bool viable = true;
        for (size_t skip = 0; viable && skip + 1 < candidate.dependent.size();
             ++skip) {
          if (previous.find(Project(candidate, skip)) == previous.end()) {
            viable = false;
          }
        }
        if (!viable) continue;
        if (stats != nullptr) ++stats->candidates_checked;
        if (CheckInd(relation, candidate.dependent, candidate.referenced)) {
          next.push_back(candidate);
        }
      }
    }
    result.insert(result.end(), next.begin(), next.end());
    level = std::move(next);
  }

  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<NaryInd> BruteForceNaryInd::Discover(const Relation& relation,
                                                 int max_arity) {
  const int n = relation.NumColumns();
  MUDS_CHECK_MSG(n <= 7 && max_arity <= 3,
                 "BruteForceNaryInd is for small test relations only");
  std::vector<NaryInd> result;

  // Enumerate dependent sides as sorted attribute lists and referenced
  // sides as permutations of distinct attributes.
  std::vector<int> dependent;
  std::vector<int> referenced;
  const std::function<void()> try_candidate = [&]() {
    if (IsProper(dependent, referenced) &&
        CheckInd(relation, dependent, referenced)) {
      result.push_back(NaryInd{dependent, referenced});
    }
  };
  const std::function<void(size_t)> choose_referenced = [&](size_t i) {
    if (i == dependent.size()) {
      try_candidate();
      return;
    }
    for (int c = 0; c < n; ++c) {
      referenced.push_back(c);
      choose_referenced(i + 1);
      referenced.pop_back();
    }
  };
  const std::function<void(int, int)> choose_dependent = [&](int from,
                                                             int remaining) {
    if (remaining == 0) {
      referenced.clear();
      choose_referenced(0);
      return;
    }
    for (int c = from; c < n; ++c) {
      dependent.push_back(c);
      choose_dependent(c + 1, remaining - 1);
      dependent.pop_back();
    }
  };
  for (int arity = 1; arity <= max_arity; ++arity) {
    choose_dependent(0, arity);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace muds
