#include "core/sampling.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/evidence.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "setops/column_set.h"
#include "setops/set_trie.h"
#include "test_util.h"
#include "testing/reference.h"

namespace muds {
namespace {

// Single-column PLIs for every column, paired with their indices — the
// shape the engines hand to SampleEvidence.
std::vector<Pli> ColumnPlis(const Relation& relation) {
  std::vector<Pli> plis;
  for (int c = 0; c < relation.NumColumns(); ++c) {
    plis.push_back(Pli::FromColumn(relation.GetColumn(c), relation.NumRows()));
  }
  return plis;
}

std::vector<std::pair<int, const Pli*>> PliPointers(
    const std::vector<Pli>& plis) {
  std::vector<std::pair<int, const Pli*>> out;
  for (size_t c = 0; c < plis.size(); ++c) {
    out.emplace_back(static_cast<int>(c), &plis[c]);
  }
  return out;
}

SamplingConfig Config(int64_t pairs, uint64_t seed = 7) {
  SamplingConfig config;
  config.pairs = pairs;
  config.seed = seed;
  return config;
}

TEST(SamplingTest, EmptyRelationDrawsNothing) {
  const Relation r = Relation::FromRows({"a", "b"}, {}, "empty");
  const std::vector<Pli> plis = ColumnPlis(r);
  const MetricsScope scope;
  EvidenceStore store(r);
  SampleEvidence(Config(1024), PliPointers(plis), &store);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(ScopeValue(scope, "sampling.pairs"), 0);
  EXPECT_FALSE(store.RefutesUcc(ColumnSet()));
  EXPECT_FALSE(store.RefutesUcc(ColumnSet::Single(0)));
}

TEST(SamplingTest, SingleRowDrawsNothing) {
  const Relation r = Relation::FromRows({"a", "b"}, {{"x", "y"}}, "one");
  const std::vector<Pli> plis = ColumnPlis(r);
  const MetricsScope scope;
  EvidenceStore store(r);
  SampleEvidence(Config(1024), PliPointers(plis), &store);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(ScopeValue(scope, "sampling.pairs"), 0);
}

TEST(SamplingTest, AllSingletonColumnsHaveNoPairsToDraw) {
  // Every column is a key: stripped PLIs have no clusters, so the sampler
  // has no eligible columns at any budget.
  const Relation r = Relation::FromRows(
      {"a", "b"}, {{"1", "x"}, {"2", "y"}, {"3", "z"}}, "keys");
  const std::vector<Pli> plis = ColumnPlis(r);
  const MetricsScope scope;
  EvidenceStore store(r);
  SampleEvidence(Config(4096), PliPointers(plis), &store);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(ScopeValue(scope, "sampling.pairs"), 0);
  EXPECT_FALSE(store.RefutesUcc(ColumnSet::Single(0)));
  EXPECT_FALSE(store.RefutesFd(ColumnSet::Single(0), 1));
}

TEST(SamplingTest, AllDuplicateColumnRefutesItsUcc) {
  // Column a is constant: every sampled pair agrees on a and (the rows
  // being distinct) disagrees on b, refuting UCC {a} and FD a → b but
  // never UCC {b} or FD b → a.
  const Relation r = Relation::FromRows(
      {"a", "b"}, {{"k", "1"}, {"k", "2"}, {"k", "3"}, {"k", "4"}}, "const");
  const std::vector<Pli> plis = ColumnPlis(r);
  const MetricsScope scope;
  EvidenceStore store(r);
  SampleEvidence(Config(64), PliPointers(plis), &store);
  EXPECT_GT(ScopeValue(scope, "sampling.pairs"), 0);
  EXPECT_TRUE(store.RefutesUcc(ColumnSet::Single(0)));
  EXPECT_TRUE(store.RefutesFd(ColumnSet::Single(0), 1));
  EXPECT_TRUE(store.RefutesFd(ColumnSet(), 1));  // b is not constant.
  EXPECT_FALSE(store.RefutesUcc(ColumnSet::Single(1)));
  EXPECT_FALSE(store.RefutesFd(ColumnSet::Single(1), 0));
  EXPECT_FALSE(store.RefutesUcc(ColumnSet::FromIndices({0, 1})));
}

TEST(SamplingTest, DeterministicInSeed) {
  const Relation r = RandomRelation(11, 4, 200, 5);
  const std::vector<Pli> plis = ColumnPlis(r);
  // One store's size and recorded pairs, each sample in a run of its own.
  const auto sample = [&] {
    const MetricsScope scope;
    EvidenceStore store(r);
    SampleEvidence(Config(128, 42), PliPointers(plis), &store);
    return std::make_pair(store.Size(), ScopeValue(scope, "sampling.pairs"));
  };
  EXPECT_EQ(sample(), sample());
}

TEST(SamplingTest, FeedBackRecordsMissedViolations) {
  const Relation r = Relation::FromRows(
      {"a", "b"}, {{"k", "1"}, {"k", "2"}, {"j", "3"}}, "fb");
  const std::vector<Pli> plis = ColumnPlis(r);
  {
    const MetricsScope scope;
    EvidenceStore store(r);
    EXPECT_FALSE(store.RefutesUcc(ColumnSet::Single(0)));
    store.FeedBackUccViolation(plis[0]);
    EXPECT_TRUE(store.RefutesUcc(ColumnSet::Single(0)));
    EXPECT_TRUE(store.RefutesFd(ColumnSet::Single(0), 1));
    EXPECT_EQ(ScopeValue(scope, "sampling.fed_back"), 1);
  }

  const MetricsScope scope;
  EvidenceStore fd_store(r);
  EXPECT_FALSE(fd_store.RefutesFd(ColumnSet::Single(0), 1));
  fd_store.FeedBackFdViolation(plis[0], r.GetColumn(1));
  EXPECT_TRUE(fd_store.RefutesFd(ColumnSet::Single(0), 1));
  EXPECT_EQ(ScopeValue(scope, "sampling.fed_back"), 1);
}

// The refutation-only invariant, against the definition-level oracle: a
// refuted candidate must be invalid on the data. (The converse is not
// required — a miss proves nothing.) Also checks that the batched
// RefutedRhs agrees with per-rhs RefutesFd probes.
TEST(SamplingTest, RefutationsAgreeWithReferenceOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Relation r = RandomRelation(seed, 5, 60, 4);
    const std::vector<Pli> plis = ColumnPlis(r);
    EvidenceStore store(r);
    SampleEvidence(Config(256, seed), PliPointers(plis), &store);

    const int n = r.NumColumns();
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<int> indices;
      for (int c = 0; c < n; ++c) {
        if ((bits >> c) & 1u) indices.push_back(c);
      }
      const ColumnSet set = ColumnSet::FromIndices(indices);
      if (store.RefutesUcc(set)) {
        EXPECT_FALSE(ReferenceProfiler::HoldsUcc(r, set))
            << "seed " << seed << " set " << set.ToString();
      }
      const ColumnSet refuted_rhs = store.RefutedRhs(set);
      for (int a = 0; a < n; ++a) {
        if (set.Contains(a)) continue;
        EXPECT_EQ(store.RefutesFd(set, a), refuted_rhs.Contains(a));
        if (store.RefutesFd(set, a)) {
          EXPECT_FALSE(ReferenceProfiler::HoldsFd(r, set, a))
              << "seed " << seed << " lhs " << set.ToString() << " rhs "
              << a;
        }
      }
    }
  }
}

// The trie probes backing the evidence store.
TEST(SetTrieEvidenceTest, ContainsSubsetOfWith) {
  SetTrie trie;
  trie.Insert(ColumnSet::FromIndices({1, 3}));
  trie.Insert(ColumnSet::FromIndices({2}));
  // {1,3} ⊆ {1,3,4} and contains 3.
  EXPECT_TRUE(
      trie.ContainsSubsetOfWith(ColumnSet::FromIndices({1, 3, 4}), 3));
  // No subset of {1,3,4} contains 4.
  EXPECT_FALSE(
      trie.ContainsSubsetOfWith(ColumnSet::FromIndices({1, 3, 4}), 4));
  // {2} ⊆ {2,5} and contains 2.
  EXPECT_TRUE(trie.ContainsSubsetOfWith(ColumnSet::FromIndices({2, 5}), 2));
  // {1,3} ⊄ {1,4}.
  EXPECT_FALSE(trie.ContainsSubsetOfWith(ColumnSet::FromIndices({1, 4}), 1));
}

TEST(SetTrieEvidenceTest, UnionOfSubsetsOf) {
  SetTrie trie;
  trie.Insert(ColumnSet::FromIndices({0, 2}));
  trie.Insert(ColumnSet::FromIndices({2, 4}));
  trie.Insert(ColumnSet::FromIndices({5}));
  EXPECT_EQ(trie.UnionOfSubsetsOf(ColumnSet::FromIndices({0, 2, 4})),
            ColumnSet::FromIndices({0, 2, 4}));
  EXPECT_EQ(trie.UnionOfSubsetsOf(ColumnSet::FromIndices({0, 2})),
            ColumnSet::FromIndices({0, 2}));
  EXPECT_EQ(trie.UnionOfSubsetsOf(ColumnSet::FromIndices({2, 4, 5})),
            ColumnSet::FromIndices({2, 4, 5}));
  EXPECT_EQ(trie.UnionOfSubsetsOf(ColumnSet::FromIndices({0, 4})),
            ColumnSet());
  EXPECT_EQ(trie.UnionOfSubsetsOf(ColumnSet()), ColumnSet());
}

}  // namespace
}  // namespace muds
