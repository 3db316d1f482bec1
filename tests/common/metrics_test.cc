#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace muds {
namespace {

// The registry is process-global, so every test uses its own metric names;
// values accumulate across tests in one binary run.
//
// The suite is named *ConcurrencyTest so the CI thread-sanitizer job's
// test filter picks it up.

TEST(MetricsConcurrencyTest, ConcurrentAddsAreExactAfterJoin) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_adds");
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kIncrementsPerThread);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsOneCounter) {
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &handles] {
      handles[static_cast<size_t>(t)] =
          MetricsRegistry::Global().GetCounter("test.concurrent_register");
      handles[static_cast<size_t>(t)]->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[static_cast<size_t>(t)], handles[0]);
  }
  EXPECT_EQ(handles[0]->Value(), kThreads);
}

TEST(MetricsConcurrencyTest, SnapshotWhileIncrementingDoesNotRace) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.snapshot_race");
  std::thread writer([counter] {
    for (int i = 0; i < 50000; ++i) counter->Increment();
  });
  int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : snapshot) {
      if (name == "test.snapshot_race") {
        EXPECT_GE(value, last);  // Monotonic even mid-run.
        last = value;
      }
    }
  }
  writer.join();
  EXPECT_EQ(counter->Value(), 50000);
}

TEST(MetricsConcurrencyTest, GaugeSetAndAdd) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(42);
  EXPECT_EQ(gauge->Value(), 42);
  gauge->Add(-2);
  EXPECT_EQ(gauge->Value(), 40);
  gauge->Set(7);
  EXPECT_EQ(gauge->Value(), 7);
}

TEST(MetricsConcurrencyTest, HandlesAreStable) {
  Counter* first = MetricsRegistry::Global().GetCounter("test.stable");
  // Force enough registrations that any reallocation of backing storage
  // would move a non-stable handle.
  for (int i = 0; i < 100; ++i) {
    MetricsRegistry::Global().GetCounter("test.stable_filler" +
                                         std::to_string(i));
  }
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.stable"), first);
}

TEST(MetricsConcurrencyTest, SnapshotIsSortedByName) {
  MetricsRegistry::Global().GetCounter("test.zzz");
  MetricsRegistry::Global().GetCounter("test.aaa");
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
}

TEST(MetricsConcurrencyTest, DeltaKeepsZeroEntries) {
  Counter* moved = MetricsRegistry::Global().GetCounter("test.delta_moved");
  MetricsRegistry::Global().GetCounter("test.delta_still");
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  moved->Add(5);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot delta = MetricsRegistry::Delta(before, after);

  int64_t moved_delta = -1;
  int64_t still_delta = -1;
  for (const auto& [name, value] : delta) {
    if (name == "test.delta_moved") moved_delta = value;
    if (name == "test.delta_still") still_delta = value;
  }
  EXPECT_EQ(moved_delta, 5);
  // A counter that did not move still appears, with a zero delta.
  EXPECT_EQ(still_delta, 0);
}

TEST(MetricsConcurrencyTest, DeltaCountsMetricsBornMidRun) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().GetCounter("test.born_mid_run")->Add(3);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot delta = MetricsRegistry::Delta(before, after);
  int64_t born_delta = -1;
  for (const auto& [name, value] : delta) {
    if (name == "test.born_mid_run") born_delta = value;
  }
  EXPECT_EQ(born_delta, 3);
}

TEST(MetricsConcurrencyTest, RunScopesFollowTheirTasksThroughThePool) {
  // Two runs on two threads each drive their own 4-thread pool through
  // Submit and ParallelFor; run r adds r + 1 per unit of work.
  Counter* counter = MetricsRegistry::Global().GetCounter("test.run_scoped");
  const int64_t global_before = counter->Value();
  constexpr int64_t kUnits = 2000;
  int64_t seen[2] = {-1, -1};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([r, counter, &seen] {
      const MetricsScope scope;
      const int64_t step = r + 1;
      ThreadPool pool(4);
      pool.ParallelFor(0, kUnits, [&](int64_t) { counter->Add(step); });
      std::vector<std::future<void>> done;
      for (int64_t i = 0; i < kUnits; ++i) {
        done.push_back(pool.Submit([&] { counter->Add(step); }));
      }
      for (std::future<void>& future : done) future.get();
      seen[r] = metrics::ValueOf(scope.run()->Snapshot(), "test.run_scoped");
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(seen[0], 2 * kUnits);
  EXPECT_EQ(seen[1], 2 * 2 * kUnits);
  EXPECT_EQ(counter->Value() - global_before, 6 * kUnits);
}

TEST(MetricsConcurrencyTest, NestedRunsCreditTheRunTheyNestIn) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.nested_run");
  const MetricsScope outer;
  counter->Add(1);
  {
    const MetricsScope inner;
    counter->Add(10);
    EXPECT_EQ(metrics::ValueOf(inner.run()->Snapshot(), "test.nested_run"),
              10);
  }
  counter->Add(100);
  EXPECT_EQ(metrics::ValueOf(outer.run()->Snapshot(), "test.nested_run"),
            111);
}

TEST(MetricsConcurrencyTest, RunSnapshotNamesEveryInstrument) {
  MetricsRegistry::Global().GetCounter("test.run_untouched");
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.run_gauge");
  const MetricsScope scope;
  gauge->Set(50);  // Process-only.
  gauge->Add(2);
  const MetricsSnapshot run = scope.run()->Snapshot();
  const MetricsSnapshot global = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(run.size(), global.size());
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].first, global[i].first);
  }
  EXPECT_EQ(metrics::ValueOf(run, "test.run_untouched"), 0);
  EXPECT_EQ(metrics::ValueOf(run, "test.run_gauge"), 2);
  EXPECT_EQ(gauge->Value(), 52);
}

TEST(MetricsConcurrencyTest, WorkOutsideAnyRunReachesOnlyTheGlobalCell) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.no_run");
  const MetricsScope scope;
  std::thread outside([counter] { counter->Add(7); });
  outside.join();
  EXPECT_EQ(metrics::ValueOf(scope.run()->Snapshot(), "test.no_run"), 0);
  EXPECT_EQ(counter->Value(), 7);
}

}  // namespace
}  // namespace muds
