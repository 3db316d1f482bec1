// Out-of-core tier of the PLI machinery: the SpillPool extent allocator,
// the PLI wire format, and the two-tier PliCache. The governing contract is
// the same as the in-memory cache's: spilling and reloading must be
// invisible in every result a consumer can observe.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/spill.h"
#include "data/preprocess.h"
#include "pli/pli_cache.h"
#include "pli/position_list_index.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace {

SpillConfig TempSpillConfig(size_t budget_bytes = 0) {
  SpillConfig config;
  config.dir = std::filesystem::temp_directory_path().string();
  config.budget_bytes = budget_bytes;
  return config;
}

std::unique_ptr<SpillPool> MakePool(size_t budget_bytes = 0) {
  Result<std::unique_ptr<SpillPool>> pool =
      SpillPool::Create(TempSpillConfig(budget_bytes));
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  return std::move(pool.value());
}

std::vector<char> Payload(size_t bytes, char seed) {
  std::vector<char> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<char>(seed + static_cast<char>(i % 251));
  }
  return data;
}

TEST(SpillPoolTest, WriteReadRoundTrip) {
  auto pool = MakePool();
  const std::vector<char> small = Payload(100, 1);
  // Larger than one slot, not slot-aligned.
  const std::vector<char> large = Payload(SpillPool::kSlotBytes * 2 + 17, 2);
  Result<SpillHandle> a = pool->Write(small.data(), small.size());
  Result<SpillHandle> b = pool->Write(large.data(), large.size());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().bytes, small.size());
  EXPECT_EQ(b.value().bytes, large.size());

  std::vector<char> out(large.size());
  ASSERT_TRUE(pool->Read(a.value(), out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), small.data(), small.size()));
  ASSERT_TRUE(pool->Read(b.value(), out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), large.data(), large.size()));

  // Positioned sub-reads (the external-merge access pattern).
  char chunk[64];
  ASSERT_TRUE(
      pool->ReadAt(b.value(), SpillPool::kSlotBytes + 5, chunk, 64).ok());
  EXPECT_EQ(0,
            std::memcmp(chunk, large.data() + SpillPool::kSlotBytes + 5, 64));
}

TEST(SpillPoolTest, FreeCoalescesAndReusesExtents) {
  auto pool = MakePool();
  const std::vector<char> one_slot = Payload(SpillPool::kSlotBytes, 3);
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 4; ++i) {
    Result<SpillHandle> h = pool->Write(one_slot.data(), one_slot.size());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  const size_t file_bytes = pool->FileBytes();
  EXPECT_EQ(pool->BytesInUse(), 4 * SpillPool::kSlotBytes);

  // Free the two middle extents; they must coalesce into one extent that
  // can host a two-slot payload without growing the file.
  pool->Free(handles[1]);
  pool->Free(handles[2]);
  const std::vector<char> two_slots = Payload(2 * SpillPool::kSlotBytes, 4);
  Result<SpillHandle> reused = pool->Write(two_slots.data(), two_slots.size());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value().offset, handles[1].offset);
  EXPECT_EQ(pool->FileBytes(), file_bytes);

  std::vector<char> out(two_slots.size());
  ASSERT_TRUE(pool->Read(reused.value(), out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), two_slots.data(), two_slots.size()));
}

TEST(SpillPoolTest, BudgetBoundsTheFile) {
  // Budget = 2 slots: the third one-slot write must fail without touching
  // the first two payloads.
  auto pool = MakePool(2 * SpillPool::kSlotBytes);
  const std::vector<char> slot = Payload(SpillPool::kSlotBytes, 5);
  Result<SpillHandle> a = pool->Write(slot.data(), slot.size());
  Result<SpillHandle> b = pool->Write(slot.data(), slot.size());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<SpillHandle> c = pool->Write(slot.data(), slot.size());
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOutOfRange);

  // Freeing makes room again.
  pool->Free(a.value());
  Result<SpillHandle> d = pool->Write(slot.data(), slot.size());
  EXPECT_TRUE(d.ok());
  std::vector<char> out(slot.size());
  ASSERT_TRUE(pool->Read(b.value(), out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), slot.data(), slot.size()));
}

TEST(SpillPoolTest, FreeRejectsDoubleAndOverlappingFrees) {
  // Regression: Free used to trust its handle, so a duplicated or stale
  // handle double-released slots — the coalescer merged the extent into a
  // neighbor and the budget counters went negative. Bad frees must now be
  // no-ops that leave BytesInUse and live payloads untouched.
  auto pool = MakePool();
  const std::vector<char> slot = Payload(SpillPool::kSlotBytes, 7);
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 3; ++i) {
    Result<SpillHandle> h = pool->Write(slot.data(), slot.size());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  ASSERT_EQ(pool->BytesInUse(), 3 * SpillPool::kSlotBytes);

  pool->Free(handles[1]);
  const size_t after_one_free = pool->BytesInUse();
  EXPECT_EQ(after_one_free, 2 * SpillPool::kSlotBytes);

  // Double free of the same handle.
  pool->Free(handles[1]);
  EXPECT_EQ(pool->BytesInUse(), after_one_free);

  // A handle overlapping the free extent from one side (starts at the live
  // extent 0 but spans into freed slot 1).
  SpillHandle overlapping = handles[0];
  overlapping.bytes = 2 * SpillPool::kSlotBytes;
  pool->Free(overlapping);
  EXPECT_EQ(pool->BytesInUse(), after_one_free);

  // Unaligned and out-of-file offsets.
  SpillHandle unaligned = handles[2];
  unaligned.offset += 1;
  pool->Free(unaligned);
  SpillHandle beyond = handles[2];
  beyond.offset = pool->FileBytes();
  pool->Free(beyond);
  EXPECT_EQ(pool->BytesInUse(), after_one_free);

  // The surviving payloads were never handed out to a new owner.
  std::vector<char> out(slot.size());
  ASSERT_TRUE(pool->Read(handles[0], out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), slot.data(), slot.size()));
  ASSERT_TRUE(pool->Read(handles[2], out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), slot.data(), slot.size()));

  // Legitimate frees still drain the pool to zero.
  pool->Free(handles[0]);
  pool->Free(handles[2]);
  EXPECT_EQ(pool->BytesInUse(), 0u);
}

TEST(SpillPoolTest, FreeAfterCoalescingRejectsStaleHandles) {
  // Free b and c so they coalesce into one extent; the stale handles' slots
  // are then inside a merged extent whose offset is no longer a map key —
  // exactly the shape that used to slip past a key-only lookup.
  auto pool = MakePool();
  const std::vector<char> slot = Payload(SpillPool::kSlotBytes, 9);
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 4; ++i) {
    Result<SpillHandle> h = pool->Write(slot.data(), slot.size());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  pool->Free(handles[1]);
  pool->Free(handles[2]);
  const size_t in_use = pool->BytesInUse();
  pool->Free(handles[1]);  // Start of the merged extent.
  pool->Free(handles[2]);  // Interior of the merged extent.
  EXPECT_EQ(pool->BytesInUse(), in_use);

  // The merged extent is handed out exactly once.
  const std::vector<char> two_slots = Payload(2 * SpillPool::kSlotBytes, 10);
  Result<SpillHandle> reused = pool->Write(two_slots.data(), two_slots.size());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value().offset, handles[1].offset);
  std::vector<char> out(slot.size());
  ASSERT_TRUE(pool->Read(handles[3], out.data()).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), slot.data(), slot.size()));
}

TEST(SpillPoolTest, BudgetAccountingSurvivesFailedWrites) {
  auto pool = MakePool(2 * SpillPool::kSlotBytes);
  const std::vector<char> slot = Payload(SpillPool::kSlotBytes, 11);
  Result<SpillHandle> a = pool->Write(slot.data(), slot.size());
  Result<SpillHandle> b = pool->Write(slot.data(), slot.size());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // A rejected write must not leak accounting.
  EXPECT_FALSE(pool->Write(slot.data(), slot.size()).ok());
  EXPECT_EQ(pool->BytesInUse(), 2 * SpillPool::kSlotBytes);

  // Draining the pool recovers the full budget.
  pool->Free(a.value());
  pool->Free(b.value());
  EXPECT_EQ(pool->BytesInUse(), 0u);
  Result<SpillHandle> c = pool->Write(slot.data(), slot.size());
  Result<SpillHandle> d = pool->Write(slot.data(), slot.size());
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(d.ok());
}

TEST(SpillPoolTest, InvalidDirFailsCreate) {
  SpillConfig config;
  config.dir = "/nonexistent/muds/spill/dir";
  Result<std::unique_ptr<SpillPool>> pool = SpillPool::Create(config);
  EXPECT_FALSE(pool.ok());
}

// The serialized form must reproduce the PLI exactly — including whether
// the bitmap sidecar is attached, which the attach policy alone cannot
// recover (kAuto attaches by cluster count and row count; the wire format
// stores the decision).
void ExpectRoundTripIdentity(const Pli& pli) {
  std::vector<char> buffer(pli.SerializedBytes());
  pli.SerializeTo(buffer.data());
  Result<Pli> reloaded = Pli::Deserialize(buffer.data(), buffer.size());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Pli& copy = reloaded.value();
  EXPECT_EQ(copy.NumRows(), pli.NumRows());
  ASSERT_EQ(copy.NumClusters(), pli.NumClusters());
  ASSERT_EQ(copy.rows().size(), pli.rows().size());
  for (size_t i = 0; i < pli.rows().size(); ++i) {
    EXPECT_EQ(copy.rows()[i], pli.rows()[i]);
  }
  ASSERT_EQ(copy.offsets().size(), pli.offsets().size());
  for (size_t i = 0; i < pli.offsets().size(); ++i) {
    EXPECT_EQ(copy.offsets()[i], pli.offsets()[i]);
  }
  EXPECT_EQ(copy.HasBitmap(), pli.HasBitmap());
  ASSERT_EQ(copy.bitmap_cluster_of_row().size(),
            pli.bitmap_cluster_of_row().size());
  for (size_t i = 0; i < pli.bitmap_cluster_of_row().size(); ++i) {
    EXPECT_EQ(copy.bitmap_cluster_of_row()[i], pli.bitmap_cluster_of_row()[i]);
  }
}

TEST(PliSerializationTest, RoundTripIsIdentityAcrossImpls) {
  // Both layouts, chosen by the input: low-cardinality columns of >= 64
  // rows carry the bitmap sidecar; a column of fewer rows, or one with
  // more than 256 clusters, is CSR only.
  bool saw_sidecar = false;
  bool saw_csr_only = false;
  for (uint64_t seed : {1u, 7u, 23u}) {
    for (const Relation& r :
         {RandomRelation(seed, 5, 300, 12), RandomRelation(seed, 5, 40, 12),
          MakeCategorical(1500, {500, 400}, seed, "high_card")}) {
      for (int c = 0; c < r.NumColumns(); ++c) {
        const Pli pli = Pli::FromColumn(r.GetColumn(c), r.NumRows());
        (pli.HasBitmap() ? saw_sidecar : saw_csr_only) = true;
        ExpectRoundTripIdentity(pli);
      }
      // Intersections too: sidecar propagation decisions must round-trip.
      const Pli ab = Pli::FromColumn(r.GetColumn(0), r.NumRows())
                         .Intersect(Pli::FromColumn(r.GetColumn(1),
                                                    r.NumRows()));
      ExpectRoundTripIdentity(ab);
    }
  }
  EXPECT_TRUE(saw_sidecar);
  EXPECT_TRUE(saw_csr_only);
  // Degenerate shapes: unique column (empty PLI) and the empty-set PLI.
  const Relation unique = RandomRelation(3, 1, 50, 1000);
  ExpectRoundTripIdentity(
      Pli::FromColumn(unique.GetColumn(0), unique.NumRows()));
  ExpectRoundTripIdentity(Pli::ForEmptySet(100));
}

TEST(PliSerializationTest, DeserializeRejectsCorruptBuffers) {
  const Relation r = RandomRelation(11, 2, 100, 4);
  const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  std::vector<char> buffer(pli.SerializedBytes());
  pli.SerializeTo(buffer.data());

  EXPECT_FALSE(Pli::Deserialize(buffer.data(), buffer.size() - 1).ok());
  EXPECT_FALSE(Pli::Deserialize(buffer.data(), 3).ok());
  std::vector<char> grown = buffer;
  grown.push_back(0);
  EXPECT_FALSE(Pli::Deserialize(grown.data(), grown.size()).ok());
}

std::vector<ColumnSet> AllPairsAndTriples(int n) {
  std::vector<ColumnSet> sets;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      sets.push_back(ColumnSet::FromIndices({a, b}));
      for (int c = b + 1; c < n; ++c) {
        sets.push_back(ColumnSet::FromIndices({a, b, c}));
      }
    }
  }
  return sets;
}

void ExpectSamePli(const Pli& a, const Pli& b, const ColumnSet& set) {
  ASSERT_EQ(a.HasBitmap(), b.HasBitmap()) << set.ToString();
  ASSERT_EQ(a.NumClusters(), b.NumClusters()) << set.ToString();
  ASSERT_EQ(a.rows().size(), b.rows().size()) << set.ToString();
  for (size_t i = 0; i < a.rows().size(); ++i) {
    ASSERT_EQ(a.rows()[i], b.rows()[i]) << set.ToString();
  }
}

TEST(PliCacheSpillTest, TieredCacheMatchesUnlimitedCache) {
  // Spill round trips with and without the bitmap sidecar, chosen by the
  // input: low-cardinality columns of 600 rows carry it; a column with
  // more than 256 clusters, or a relation of fewer than 64 rows, does not.
  struct Input {
    Relation relation;
    bool first_column_has_sidecar;
  };
  const Input inputs[] = {
      {DeduplicateRows(MakeCategorical(600, {4, 3, 5, 2, 6, 3}, 29,
                                       "spill_test"))
           .relation,
       true},
      {DeduplicateRows(MakeCategorical(1500, {500, 3, 4, 5}, 29,
                                       "high_card"))
           .relation,
       false},
      {DeduplicateRows(MakeCategorical(50, {3, 4, 5}, 29, "short")).relation,
       false},
  };
  for (const Input& input : inputs) {
    const Relation& r = input.relation;
    // Tiny budget so every derived entry is demoted, with the cold tier
    // turned on: evictions spill instead of dropping.
    // The unlimited cache is built outside the run and never evicts, so
    // the run's eviction, spill and pinned-byte metrics are the tiered
    // cache's alone.
    PliCache unlimited(r, PliCache::kUnlimitedBudget);
    const MetricsScope scope;
    PliCache tiered(r, /*budget_bytes=*/1, /*pool=*/nullptr,
                    TempSpillConfig());
    ASSERT_TRUE(tiered.spill_enabled());
    EXPECT_EQ(tiered.Get(ColumnSet::Single(0))->HasBitmap(),
              input.first_column_has_sidecar)
        << r.name();
    const std::vector<ColumnSet> sets = AllPairsAndTriples(r.NumColumns());
    // Two passes: the second probes entries whose hot copy was evicted, so
    // it exercises the reload path.
    for (int pass = 0; pass < 2; ++pass) {
      for (const ColumnSet& set : sets) {
        ExpectSamePli(*tiered.Get(set), *unlimited.Get(set), set);
      }
    }
    EXPECT_GT(ScopeValue(scope, "pli_cache.evictions"), 0);
    EXPECT_GT(ScopeValue(scope, "pli_cache.spill_writes"), 0);
    EXPECT_GT(ScopeValue(scope, "pli_cache.spill_reloads"), 0);
    EXPECT_GT(ScopeValue(scope, "pli_cache.spill_bytes"), 0);
    EXPECT_GT(ScopeValue(scope, "pli_cache.pinned_bytes"), 0);
  }
}

TEST(PliCacheSpillTest, SpillDisabledWithoutDirOrWithUnlimitedBudget) {
  const Relation r =
      DeduplicateRows(MakeCategorical(100, {3, 4}, 5, "nospill")).relation;
  PliCache no_dir(r, /*budget_bytes=*/1);
  EXPECT_FALSE(no_dir.spill_enabled());
  // Unlimited budget never evicts, so the cold tier stays off even with a
  // spill dir configured.
  PliCache unlimited(r, PliCache::kUnlimitedBudget, nullptr,
                     TempSpillConfig());
  EXPECT_FALSE(unlimited.spill_enabled());
}

TEST(PliCacheSpillTest, UnavailableSpillDirIsCountedNotPrinted) {
  const Relation r =
      DeduplicateRows(MakeCategorical(100, {3, 4}, 5, "nodir")).relation;
  SpillConfig spill;
  spill.dir = "/nonexistent/muds/spill/dir";
  const MetricsScope scope;
  ::testing::internal::CaptureStderr();
  PliCache cache(r, /*budget_bytes=*/1, nullptr, spill);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(cache.spill_enabled());
  EXPECT_EQ(ScopeValue(scope, "pli_cache.spill_unavailable"), 1);
}

TEST(PliCacheSpillTest, SpillBudgetExhaustionFallsBackToRebuild) {
  const Relation r =
      DeduplicateRows(MakeCategorical(500, {4, 3, 5, 2, 6}, 31, "tiny"))
          .relation;
  // One-byte spill budget: every demotion attempt fails, so the cache must
  // behave exactly like the single-tier tight cache (drop + rebuild).
  const MetricsScope scope;
  PliCache tiered(r, /*budget_bytes=*/1, nullptr,
                  TempSpillConfig(/*budget_bytes=*/1));
  PliCache unlimited(r, PliCache::kUnlimitedBudget);
  for (const ColumnSet& set : AllPairsAndTriples(r.NumColumns())) {
    ExpectSamePli(*tiered.Get(set), *unlimited.Get(set), set);
  }
  EXPECT_EQ(ScopeValue(scope, "pli_cache.spill_writes"), 0);
  EXPECT_EQ(ScopeValue(scope, "pli_cache.spill_reloads"), 0);
}

}  // namespace
}  // namespace muds
