// JobScheduler: priority dispatch over the FIFO ThreadPool, bounded
// admission, cooperative cancellation, and deadline expiry.
//
// The deterministic tests use a 1-thread pool (Submit runs inline) plus
// start_paused, so a backlog builds up and Resume() replays it in exactly
// the order the priority queues dictate. The concurrent tests run under
// the tsan label. Job counts are read from the serve.* registry counters
// of each test's own MetricsScope.

#include "serve/job_scheduler.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace muds {
namespace serve {
namespace {

JobScheduler::Options Paused(size_t max_queued = 64) {
  JobScheduler::Options options;
  options.max_queued = max_queued;
  options.start_paused = true;
  return options;
}

TEST(JobSchedulerTest, RunsHighestPriorityFirstFifoWithinLevel) {
  const MetricsScope scope;
  ThreadPool pool(1);  // Inline: Resume() replays the backlog in order.
  JobScheduler scheduler(&pool, Paused());

  std::vector<int> order;
  auto submit = [&](int tag, int priority) {
    JobConfig config;
    config.priority = priority;
    ASSERT_TRUE(scheduler
                    .Submit(
                        [&order, tag](JobContext&) {
                          order.push_back(tag);
                          return Status::Ok();
                        },
                        config)
                    .ok());
  };
  submit(1, 0);
  submit(2, 5);
  submit(3, -3);
  submit(4, 5);  // Same level as 2: FIFO behind it.
  submit(5, 9);

  scheduler.Resume();
  scheduler.Drain();
  EXPECT_EQ(order, (std::vector<int>{5, 2, 4, 1, 3}));

  EXPECT_EQ(ScopeValue(scope, "serve.jobs_submitted"), 5);
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_completed"), 5);
  EXPECT_EQ(scheduler.NumQueued(), 0u);
  EXPECT_EQ(scheduler.NumRunning(), 0u);
}

TEST(JobSchedulerTest, RejectsWhenQueueFullWithOutOfRange) {
  const MetricsScope scope;
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, Paused(/*max_queued=*/2));

  auto noop = [](JobContext&) { return Status::Ok(); };
  ASSERT_TRUE(scheduler.Submit(noop).ok());
  ASSERT_TRUE(scheduler.Submit(noop).ok());

  const Result<JobId> rejected = scheduler.Submit(noop);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_rejected"), 1);

  scheduler.Resume();
  scheduler.Drain();
  // The backlog drained, so admission has room again.
  EXPECT_TRUE(scheduler.Submit(noop).ok());
  scheduler.Drain();
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_completed"), 3);
}

TEST(JobSchedulerTest, RejectsAfterBeginShutdownWithUnavailable) {
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, JobScheduler::Options{});
  scheduler.BeginShutdown();
  const Result<JobId> rejected =
      scheduler.Submit([](JobContext&) { return Status::Ok(); });
  ASSERT_FALSE(rejected.ok());
  // Distinct from the queue-full rejection: clients back off on
  // OutOfRange but give up (or fail over) on Unavailable.
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

TEST(JobSchedulerTest, CancelWhileQueuedNeverRunsTheBody) {
  const MetricsScope scope;
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, Paused());

  bool ran = false;
  const Result<JobId> id = scheduler.Submit([&ran](JobContext&) {
    ran = true;
    return Status::Ok();
  });
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(scheduler.Cancel(id.value()));

  scheduler.Resume();
  scheduler.Drain();
  EXPECT_FALSE(ran);
  ASSERT_TRUE(scheduler.GetInfo(id.value()).has_value());
  EXPECT_EQ(scheduler.GetInfo(id.value())->state, JobState::kCancelled);
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_cancelled"), 1);
  // A job already terminal cannot be cancelled again.
  EXPECT_FALSE(scheduler.Cancel(id.value()));
}

TEST(JobSchedulerTest, CancelMidPhaseStopsAtNextCheckAlive) {
  ThreadPool pool(2);
  JobScheduler scheduler(&pool, JobScheduler::Options{});

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const Result<JobId> id = scheduler.Submit([&](JobContext& context) {
    // Phase 1 runs; the cancel arrives "mid-phase" while we hold here.
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    // Phase boundary: the cooperative check observes the cancel.
    if (Status alive = context.CheckAlive(); !alive.ok()) return alive;
    ADD_FAILURE() << "body kept running past a cancelled CheckAlive";
    return Status::Ok();
  });
  ASSERT_TRUE(id.ok());

  while (!entered.load()) std::this_thread::yield();
  EXPECT_TRUE(scheduler.Cancel(id.value()));
  release.store(true);

  ASSERT_TRUE(scheduler.WaitTerminal(id.value(), /*timeout_ms=*/30000));
  EXPECT_EQ(scheduler.GetInfo(id.value())->state, JobState::kCancelled);
  EXPECT_EQ(scheduler.GetInfo(id.value())->status.code(),
            StatusCode::kCancelled);
  scheduler.Drain();
}

TEST(JobSchedulerTest, DeadlineExpiryWhileQueuedDropsAtDispatch) {
  const MetricsScope scope;
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, Paused());

  bool ran = false;
  JobConfig config;
  config.deadline_ms = 1;
  const Result<JobId> id = scheduler.Submit(
      [&ran](JobContext&) {
        ran = true;
        return Status::Ok();
      },
      config);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  scheduler.Resume();
  scheduler.Drain();
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.GetInfo(id.value())->state, JobState::kExpired);
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_expired"), 1);
}

TEST(JobSchedulerTest, DeadlineExpiryMidRunStopsAtCheckAlive) {
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, JobScheduler::Options{});

  JobConfig config;
  config.deadline_ms = 5;
  const Result<JobId> id = scheduler.Submit(
      [](JobContext& context) {
        while (!context.DeadlineExpired()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return context.CheckAlive();
      },
      config);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.WaitTerminal(id.value(), /*timeout_ms=*/30000));
  EXPECT_EQ(scheduler.GetInfo(id.value())->state, JobState::kExpired);
  EXPECT_EQ(scheduler.GetInfo(id.value())->status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST(JobSchedulerTest, FailedJobKeepsItsStatus) {
  const MetricsScope scope;
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, JobScheduler::Options{});
  const Result<JobId> id = scheduler.Submit([](JobContext&) {
    return Status::InvalidArgument("bad csv");
  });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.WaitTerminal(id.value()));
  const auto info = scheduler.GetInfo(id.value());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_EQ(info->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_failed"), 1);
}

TEST(JobSchedulerTest, QueueWaitIsAccounted) {
  const MetricsScope scope;
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, Paused());
  const Result<JobId> id =
      scheduler.Submit([](JobContext&) { return Status::Ok(); });
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  scheduler.Resume();
  scheduler.Drain();
  EXPECT_GE(scheduler.GetInfo(id.value())->queue_wait_ns, 1000000);
  EXPECT_GE(ScopeValue(scope, "serve.queue_wait_ns"), 1000000);
}

TEST(JobSchedulerTest, JobContextExposesBudget) {
  ThreadPool pool(1);
  JobScheduler::Options options;
  options.job_budget_bytes = 1u << 20;
  JobScheduler scheduler(&pool, options);
  const Result<JobId> id = scheduler.Submit([](JobContext& context) {
    EXPECT_EQ(context.pli_budget_bytes(), 1u << 20);
    return Status::Ok();
  });
  ASSERT_TRUE(id.ok());
  scheduler.Drain();
}

TEST(JobSchedulerTest, WaitTerminalTimesOutAndUnknownIdsAreFalse) {
  ThreadPool pool(1);
  JobScheduler scheduler(&pool, Paused());
  const Result<JobId> id =
      scheduler.Submit([](JobContext&) { return Status::Ok(); });
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(scheduler.WaitTerminal(id.value(), /*timeout_ms=*/10));
  EXPECT_FALSE(scheduler.WaitTerminal(9999, /*timeout_ms=*/10));
  EXPECT_FALSE(scheduler.GetInfo(9999).has_value());
  scheduler.Resume();
  scheduler.Drain();
  EXPECT_TRUE(scheduler.WaitTerminal(id.value(), /*timeout_ms=*/10));
}

// Concurrency soak (the reason this suite carries the tsan label): many
// producers submitting, cancelling, and waiting against a real worker
// pool, with the scheduler's destructor draining whatever remains.
TEST(JobSchedulerConcurrencyTest, ConcurrentSubmitCancelDrain) {
  const MetricsScope scope;
  ThreadPool pool(4);
  JobScheduler::Options options;
  options.max_queued = 1024;
  JobScheduler scheduler(&pool, options);

  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  std::atomic<int> accepted{0};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      // Producers are plain threads: re-enter the test's run so their
      // submits (and the pumps they schedule) count in it.
      const MetricsScope enter(scope.run());
      for (int i = 0; i < 32; ++i) {
        JobConfig config;
        config.priority = (t + i) % 3;
        const Result<JobId> id = scheduler.Submit(
            [&executed](JobContext& context) {
              if (Status alive = context.CheckAlive(); !alive.ok()) {
                return alive;
              }
              executed.fetch_add(1);
              return Status::Ok();
            },
            config);
        if (id.ok()) {
          accepted.fetch_add(1);
          if (i % 8 == t) scheduler.Cancel(id.value());
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  scheduler.Drain();

  const int64_t completed = ScopeValue(scope, "serve.jobs_completed");
  EXPECT_EQ(ScopeValue(scope, "serve.jobs_submitted"), accepted.load());
  EXPECT_EQ(completed + ScopeValue(scope, "serve.jobs_cancelled") +
                ScopeValue(scope, "serve.jobs_failed") +
                ScopeValue(scope, "serve.jobs_expired"),
            accepted.load());
  EXPECT_EQ(completed, executed.load());
  EXPECT_EQ(scheduler.NumQueued(), 0u);
  EXPECT_EQ(scheduler.NumRunning(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace muds
