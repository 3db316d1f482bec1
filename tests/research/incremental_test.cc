// IncrementalProfiler contract: after every Append, the maintained
// IND/UCC/FD sets are bit-identical to a from-scratch profile of the grown
// instance (diffed against the brute-force reference oracle), for every
// thread count and under PLI-budget pressure with the spill tier engaged.

#include "research/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "data/metadata.h"
#include "data/preprocess.h"
#include "data/relation.h"
#include "test_util.h"
#include "testing/reference.h"

namespace muds {
namespace {

// Rows [begin, end) of `relation`, as a standalone relation with minimal
// dictionaries.
Relation Slice(const Relation& relation, RowId begin, RowId end) {
  std::vector<RowId> rows;
  for (RowId r = begin; r < end; ++r) rows.push_back(r);
  return relation.SelectRows(rows);
}

// The profiler run's value of the registry counter `name`.
int64_t Metric(const IncrementalProfiler& profiler, const std::string& name) {
  return metrics::ValueOf(profiler.Result().metrics, name);
}

void ExpectMatchesOracle(const IncrementalProfiler& profiler,
                         const Relation& instance, const std::string& what) {
  const ReferenceResult oracle = ReferenceProfiler::Profile(instance);
  EXPECT_EQ(profiler.inds(), oracle.inds) << what;
  EXPECT_EQ(profiler.uccs(), oracle.uccs) << what;
  EXPECT_EQ(profiler.fds(), oracle.fds) << what;
}

TEST(IncrementalProfilerTest, EmptyBatchIsANoOp) {
  const Relation base = RandomRelation(3, 4, 60, 4);
  IncrementalProfiler profiler(base, ProfileOptions());
  const auto inds = profiler.inds();
  const auto uccs = profiler.uccs();
  const auto fds = profiler.fds();

  const Relation empty =
      Relation::FromRows(base.ColumnNames(), {}, "empty-batch");
  ASSERT_TRUE(profiler.Append(empty).ok());
  EXPECT_EQ(profiler.inds(), inds);
  EXPECT_EQ(profiler.uccs(), uccs);
  EXPECT_EQ(profiler.fds(), fds);
  EXPECT_EQ(Metric(profiler, "incremental.appended_rows"), 0);
  ExpectMatchesOracle(profiler, base, "after empty batch");
}

TEST(IncrementalProfilerTest, AllDuplicateBatchIsANoOp) {
  const Relation base = RandomRelation(4, 4, 80, 4);
  IncrementalProfiler profiler(base, ProfileOptions());
  const auto uccs = profiler.uccs();

  // A copy of the first rows of the base: every row already exists.
  const Relation dup = Slice(base, 0, 20);
  ASSERT_TRUE(profiler.Append(dup).ok());
  EXPECT_EQ(profiler.uccs(), uccs);
  EXPECT_EQ(Metric(profiler, "incremental.appended_rows"), 0);
  EXPECT_EQ(Metric(profiler, "incremental.duplicates_dropped"), 20);
  ExpectMatchesOracle(profiler, base, "after all-duplicate batch");
}

TEST(IncrementalProfilerTest, BatchWithNewDictionaryValues) {
  const Relation base = Relation::FromRows(
      {"id", "grp", "twice"},
      {{"1", "a", "aa"}, {"2", "b", "bb"}, {"3", "a", "aa"}});
  IncrementalProfiler profiler(base, ProfileOptions());

  // Entirely new values in every column, including dictionary entries that
  // sort before, between, and after the existing ones.
  const Relation batch = Relation::FromRows(
      {"id", "grp", "twice"},
      {{"0", "0z", "0zz"}, {"9", "m", "mm"}, {"4", "z", "zz"}});
  ASSERT_TRUE(profiler.Append(batch).ok());

  std::vector<std::vector<std::string>> all_rows;
  const Relation grown = profiler.relation();
  for (RowId r = 0; r < grown.NumRows(); ++r) all_rows.push_back(grown.Row(r));
  ASSERT_EQ(all_rows.size(), 6u);
  ExpectMatchesOracle(profiler, grown, "after new-value batch");

  // Dictionaries must still be sorted (code == value rank) — SPIDER reads
  // them as sorted duplicate-free value lists.
  for (int c = 0; c < grown.NumColumns(); ++c) {
    const auto& dict = grown.GetColumn(c).dictionary;
    EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end())) << "column " << c;
  }
}

TEST(IncrementalProfilerTest, BatchBreaksMinimalFdAndUcc) {
  // Base: {a} is the unique minimal UCC; b -> c holds; e is constant
  // (so ∅ -> e is a minimal FD).
  const Relation base = Relation::FromRows(
      {"a", "b", "c", "e"},
      {{"1", "x", "p", "k"}, {"2", "y", "q", "k"}, {"3", "x", "p", "k"}});
  IncrementalProfiler profiler(base, ProfileOptions());
  ASSERT_TRUE(std::count(profiler.uccs().begin(), profiler.uccs().end(),
                         ColumnSet::Single(0)) == 1);

  // The appended row repeats a=2 (breaking UCC {a}), pairs b=x with a new
  // c value (breaking b -> c), and changes e (breaking ∅ -> e).
  const Relation batch =
      Relation::FromRows({"a", "b", "c", "e"}, {{"2", "x", "r", "m"}});
  ASSERT_TRUE(profiler.Append(batch).ok());

  EXPECT_EQ(std::count(profiler.uccs().begin(), profiler.uccs().end(),
                       ColumnSet::Single(0)),
            0);
  EXPECT_GT(Metric(profiler, "incremental.broken"), 0);
  ExpectMatchesOracle(profiler, profiler.relation(), "after breaking batch");
}

TEST(IncrementalProfilerTest, BatchCreatesNewInd) {
  // dep ⊄ ref before the append (value "3" is missing from ref); the batch
  // adds ref=3, closing the gap, so dep ⊆ ref must appear.
  const Relation base = Relation::FromRows(
      {"dep", "ref"}, {{"1", "1"}, {"2", "2"}, {"3", "4"}});
  IncrementalProfiler profiler(base, ProfileOptions());
  const Ind expected{0, 1};
  ASSERT_EQ(std::count(profiler.inds().begin(), profiler.inds().end(),
                       expected),
            0);

  const Relation batch = Relation::FromRows({"dep", "ref"}, {{"1", "3"}});
  ASSERT_TRUE(profiler.Append(batch).ok());
  EXPECT_EQ(std::count(profiler.inds().begin(), profiler.inds().end(),
                       expected),
            1);
  ExpectMatchesOracle(profiler, profiler.relation(), "after IND-creating batch");
}

TEST(IncrementalProfilerTest, SchemaMismatchIsRejected) {
  const Relation base = RandomRelation(5, 3, 30, 3);
  IncrementalProfiler profiler(base, ProfileOptions());
  const auto uccs = profiler.uccs();

  const Relation wrong_arity = RandomRelation(6, 4, 10, 3);
  EXPECT_FALSE(profiler.Append(wrong_arity).ok());

  const Relation wrong_names = Relation::FromRows(
      {"x0", "x1", "x2"}, {{"a", "b", "c"}});
  EXPECT_FALSE(profiler.Append(wrong_names).ok());

  // State is untouched by rejected batches.
  EXPECT_EQ(profiler.uccs(), uccs);
  ExpectMatchesOracle(profiler, base, "after rejected batches");
}

TEST(IncrementalProfilerTest, RepeatedAppendsMatchFromScratch) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (int threads : {1, 4}) {
      const Relation full = RandomRelation(seed, 5, 150, 4);
      ProfileOptions options;
      options.num_threads = threads;
      IncrementalProfiler profiler(Slice(full, 0, 60), options);
      const RowId cuts[] = {60, 90, 120, 150};
      for (size_t i = 1; i < std::size(cuts); ++i) {
        ASSERT_TRUE(
            profiler.Append(Slice(full, cuts[i - 1], cuts[i])).ok());
        ExpectMatchesOracle(
            profiler, Slice(full, 0, cuts[i]),
            "seed " + std::to_string(seed) + " threads " +
                std::to_string(threads) + " prefix " + std::to_string(cuts[i]));
      }
    }
  }
}

TEST(IncrementalProfilerTest, TinyBudgetWithSpillMatchesFromScratch) {
  const Relation full = RandomRelation(21, 6, 240, 5);
  ProfileOptions options;
  options.num_threads = 2;
  options.pli_budget_bytes = 16 * 1024;  // Forces eviction of derived PLIs.
  options.spill.dir = std::filesystem::temp_directory_path().string();
  IncrementalProfiler profiler(Slice(full, 0, 80), options);
  const RowId cuts[] = {80, 120, 160, 200, 240};
  for (size_t i = 1; i < std::size(cuts); ++i) {
    ASSERT_TRUE(profiler.Append(Slice(full, cuts[i - 1], cuts[i])).ok());
    ExpectMatchesOracle(profiler, Slice(full, 0, cuts[i]),
                        "tiny budget prefix " + std::to_string(cuts[i]));
  }
}

TEST(IncrementalProfilerTest, ResultCarriesIncrementalCounters) {
  const Relation full = RandomRelation(31, 4, 100, 4);
  const Relation base = Slice(full, 0, 50);
  const int64_t appended = DeduplicateRows(full).relation.NumRows() -
                           DeduplicateRows(base).relation.NumRows();
  ASSERT_GT(appended, 0);
  IncrementalProfiler profiler(base, ProfileOptions());
  const int64_t base_dependencies =
      static_cast<int64_t>(profiler.uccs().size() + profiler.fds().size());
  ASSERT_TRUE(profiler.Append(Slice(full, 50, 100)).ok());

  const ProfilingResult result = profiler.Result();
  const auto metric = [&](const std::string& name) -> int64_t {
    for (const auto& entry : result.metrics) {
      if (entry.first == name) return entry.second;
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1;
  };
  // The profiler's run counts exactly its own work: the constructor's base
  // profile and the one Append.
  EXPECT_EQ(metric("incremental.batches"), 1);
  EXPECT_EQ(metric("incremental.appended_rows"), appended);
  EXPECT_EQ(metric("incremental.duplicates_dropped"), 50 - appended);
  // Sampling is off, so every base UCC and FD is either screened out or
  // re-validated on the data.
  EXPECT_EQ(metric("incremental.evidence_hits"), 0);
  EXPECT_EQ(metric("incremental.screened_out") +
                metric("incremental.revalidated"),
            base_dependencies);
  // The base is deduplicated once: one pass over its 50 rows.
  EXPECT_EQ(metric("dedup.rows"), 50);
  // The base profile's FD work: PLI validations plus the candidates the
  // row probe refuted before any PLI work (on 50 rows at cardinality <= 4
  // the probe can settle every check).
  EXPECT_GT(metric("muds.fd_checks") + metric("muds.fd_probe.refuted"), 0);
  EXPECT_GT(result.timings.Micros("incrementalAppend"), 0);
}

}  // namespace
}  // namespace muds
