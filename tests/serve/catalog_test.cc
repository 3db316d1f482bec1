// ResultCatalog: content-hash keying, hit/miss/coalesce semantics, abort
// promotion, LRU eviction — and the append path the server routes through
// it (a submission with append batches must be interchangeable with the
// profile of the concatenation). Hits, misses, coalesced waits and
// evictions are read from the serve.catalog_* registry counters of each
// test's own MetricsScope.

#include "serve/catalog.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/profiler.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace muds {
namespace serve {
namespace {

const char kCsv[] =
    "id,city,zip\n"
    "1,ulm,89073\n"
    "2,ulm,89073\n"
    "3,berlin,10115\n"
    "4,potsdam,14467\n";

TEST(CatalogKeyTest, IdenticalInputsShareAKey) {
  ProfileOptions options;
  EXPECT_EQ(ResultCatalog::KeyFor(kCsv, {}, options),
            ResultCatalog::KeyFor(std::string(kCsv), {}, options));
  // Knobs that cannot change the dependency sets (threads, budgets, PLI
  // implementation) are deliberately NOT part of the key: the engine is
  // bit-identical across them, so they'd only fragment the cache.
  ProfileOptions tuned = options;
  tuned.num_threads = 8;
  tuned.pli_budget_bytes = 1u << 20;
  EXPECT_EQ(ResultCatalog::KeyFor(kCsv, {}, options),
            ResultCatalog::KeyFor(kCsv, {}, tuned));
}

TEST(CatalogKeyTest, NearMissesGetDistinctKeys) {
  ProfileOptions options;
  const std::string key = ResultCatalog::KeyFor(kCsv, {}, options);

  // One byte of content.
  std::string flipped = kCsv;
  flipped[flipped.size() - 2] = '8';
  EXPECT_NE(ResultCatalog::KeyFor(flipped, {}, options), key);

  // Same bytes, different result-affecting options.
  ProfileOptions other = options;
  other.algorithm = Algorithm::kBaseline;
  EXPECT_NE(ResultCatalog::KeyFor(kCsv, {}, other), key);
  other = options;
  other.csv.has_header = false;
  EXPECT_NE(ResultCatalog::KeyFor(kCsv, {}, other), key);
  other = options;
  other.csv.nulls = NullSemantics::kNullUnequal;
  EXPECT_NE(ResultCatalog::KeyFor(kCsv, {}, other), key);

  // Appends are part of the content: base+delta differs from base, and
  // from the same delta split differently.
  EXPECT_NE(ResultCatalog::KeyFor(kCsv, {"5,ulm,89073\n"}, options), key);
  EXPECT_NE(ResultCatalog::KeyFor(kCsv, {"5,ulm,89073\n", "6,ulm,89073\n"},
                                  options),
            ResultCatalog::KeyFor(kCsv, {"5,ulm,89073\n6,ulm,89073\n"},
                                  options));
}

TEST(CatalogTest, MissThenPublishThenHitReturnsSameValue) {
  const MetricsScope scope;
  ResultCatalog catalog(8);
  const std::string key = ResultCatalog::KeyFor(kCsv, {}, ProfileOptions());

  EXPECT_EQ(catalog.FindOrBegin(key), nullptr);  // Miss: caller computes.
  auto value = std::make_shared<ResultCatalog::Value>();
  value->json = "{\"fake\":1}";
  catalog.Publish(key, value);

  const std::shared_ptr<const ResultCatalog::Value> hit =
      catalog.FindOrBegin(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), value.get());

  EXPECT_EQ(ScopeValue(scope, "serve.catalog_misses"), 1);
  EXPECT_EQ(ScopeValue(scope, "serve.catalog_hits"), 1);
  EXPECT_EQ(catalog.NumEntries(), 1u);
}

TEST(CatalogTest, ConcurrentDuplicatesCoalesceOntoOneComputer) {
  const MetricsScope scope;
  ResultCatalog catalog(8);
  const std::string key = "coalesce-key";
  ASSERT_EQ(catalog.FindOrBegin(key), nullptr);  // This thread computes.

  std::vector<std::thread> waiters;
  std::vector<std::shared_ptr<const ResultCatalog::Value>> seen(4);
  for (size_t i = 0; i < seen.size(); ++i) {
    waiters.emplace_back([&catalog, &key, &seen, &scope, i] {
      const MetricsScope enter(scope.run());  // Count in the test's run.
      seen[i] = catalog.FindOrBegin(key);  // Blocks until Publish.
    });
  }

  auto value = std::make_shared<ResultCatalog::Value>();
  catalog.Publish(key, value);
  for (std::thread& waiter : waiters) waiter.join();
  for (const auto& hit : seen) {
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), value.get());
  }
  // Exactly one computation no matter how the threads interleave; every
  // duplicate is a hit whether it blocked on the pending entry (coalesced)
  // or arrived after Publish (ready hit).
  EXPECT_EQ(ScopeValue(scope, "serve.catalog_misses"), 1);
  EXPECT_EQ(ScopeValue(scope, "serve.catalog_hits"), 4);
  EXPECT_LE(ScopeValue(scope, "serve.catalog_coalesced"), 4);
}

TEST(CatalogTest, AbortPromotesExactlyOneWaiter) {
  ResultCatalog catalog(8);
  const std::string key = "abort-key";
  ASSERT_EQ(catalog.FindOrBegin(key), nullptr);

  // Two waiters pile onto the pending entry.
  std::vector<std::thread> waiters;
  std::atomic<int> promoted{0};
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      if (catalog.FindOrBegin(key) == nullptr) {
        // Promoted to computer: publish so the other waiter unblocks.
        promoted.fetch_add(1);
        catalog.Publish(key, std::make_shared<ResultCatalog::Value>());
      }
    });
  }
  // Give the waiters a moment to register, then abort the computation.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  catalog.Abort(key);
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(promoted.load(), 1);
  ASSERT_NE(catalog.FindOrBegin(key), nullptr);
}

TEST(CatalogTest, AbortWithNoWaitersErasesTheEntry) {
  const MetricsScope scope;
  ResultCatalog catalog(8);
  ASSERT_EQ(catalog.FindOrBegin("k"), nullptr);
  catalog.Abort("k");
  // The next lookup is a fresh miss, not a stranded pending entry.
  EXPECT_EQ(catalog.FindOrBegin("k"), nullptr);
  EXPECT_EQ(ScopeValue(scope, "serve.catalog_misses"), 2);
}

TEST(CatalogTest, EvictsLeastRecentlyUsedReadyEntry) {
  const MetricsScope scope;
  ResultCatalog catalog(/*max_entries=*/2);
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_EQ(catalog.FindOrBegin(key), nullptr);
    catalog.Publish(key, std::make_shared<ResultCatalog::Value>());
  }
  EXPECT_EQ(ScopeValue(scope, "serve.catalog_evictions"), 1);
  EXPECT_EQ(catalog.NumEntries(), 2u);
  // "a" was the LRU victim; "b" and "c" are still resident.
  EXPECT_NE(catalog.FindOrBegin("c"), nullptr);
  EXPECT_NE(catalog.FindOrBegin("b"), nullptr);
  EXPECT_EQ(catalog.FindOrBegin("a"), nullptr);
}

// Profiles `base` grown by `appends` and the byte concatenation, and
// expects the same answer from both.
void ExpectAppendsEqualConcatenation(const std::string& base,
                                     const std::vector<std::string>& appends,
                                     const ProfileOptions& options = {}) {
  const Result<ProfilingResult> grown =
      ProfileCsvStringWithAppends(base, appends, options);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  std::string concatenation = base;
  for (const std::string& batch : appends) concatenation += batch;
  const Result<ProfilingResult> scratch =
      ProfileCsvString(concatenation, options);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  EXPECT_EQ(grown.value().inds, scratch.value().inds);
  EXPECT_EQ(grown.value().uccs, scratch.value().uccs);
  EXPECT_EQ(grown.value().fds, scratch.value().fds);
  EXPECT_EQ(grown.value().column_names, scratch.value().column_names);
  EXPECT_EQ(grown.value().duplicates_removed,
            scratch.value().duplicates_removed);
}

// The serving append path: a submission with append batches must land on
// exactly the dependency sets of a profile of the concatenation — that
// equivalence is what makes it safe for the catalog to treat
// (base, appends) as content.
TEST(CatalogTest, AppendFastPathEqualsFromScratch) {
  const std::string base =
      "a,b,c\n"
      "1,x,10\n"
      "2,y,10\n"
      "3,z,20\n";
  const std::string delta1 = "4,x,20\n5,w,30\n";
  const std::string delta2 = "6,q,10\n1,x,10\n";  // Includes a duplicate.
  ExpectAppendsEqualConcatenation(base, {delta1, delta2});
}

TEST(CatalogTest, AppendEdgeCasesEqualConcatenation) {
  const std::string base = "a,b,c\n1,x,10\n2,y,10\n3,z,20\n";
  {
    SCOPED_TRACE("header-only base");
    ExpectAppendsEqualConcatenation("a,b,c\n", {"1,x,10\n2,x,20\n"});
  }
  {
    SCOPED_TRACE("empty batch");
    ExpectAppendsEqualConcatenation(base, {""});
    ExpectAppendsEqualConcatenation(base, {"4,w,30\n", "", "\r\n\n"});
  }
  {
    SCOPED_TRACE("batch of base rows only");
    ExpectAppendsEqualConcatenation(base, {"1,x,10\n3,z,20\n1,x,10\n"});
    const Result<ProfilingResult> repeated =
        ProfileCsvStringWithAppends(base, {"1,x,10\n3,z,20\n1,x,10\n"});
    ASSERT_TRUE(repeated.ok());
    EXPECT_EQ(repeated.value().duplicates_removed, 3);
  }
  {
    SCOPED_TRACE("no trailing newline");
    ExpectAppendsEqualConcatenation(base, {"4,x,20\n5,w,30"});
  }
  {
    SCOPED_TRACE("three threads");
    ProfileOptions options;
    options.num_threads = 3;
    ExpectAppendsEqualConcatenation(base, {"4,x,20\n5,w,30\n", "6,q,10\n"},
                                    options);
  }
}

TEST(CatalogTest, AppendColumnCountMismatchNamesTheBatch) {
  const Result<ProfilingResult> result = ProfileCsvStringWithAppends(
      "a,b\n1,2\n", {"3,4\n", "5,6,7\n"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "append batch 2 has 3 columns, base has 2");
}

TEST(CatalogTest, AppendFastPathRejectsNullUnequal) {
  ProfileOptions options;
  options.csv.nulls = NullSemantics::kNullUnequal;
  const Result<ProfilingResult> result =
      ProfileCsvStringWithAppends("a,b\n1,2\n", {"3,4\n"}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace muds
