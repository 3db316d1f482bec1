#ifndef MUDS_SERVE_JOB_SCHEDULER_H_
#define MUDS_SERVE_JOB_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"

namespace muds {
namespace serve {

using JobId = int64_t;

/// Lifecycle of a scheduled job. Terminal states are kDone, kFailed,
/// kCancelled, and kExpired; rejection at admission never creates a job.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kExpired,
};

const char* JobStateName(JobState state);

/// Handed to the job body while it runs. Jobs are cooperative: the
/// scheduler cannot interrupt a running body, so the body calls
/// CheckAlive() at its phase boundaries (parse -> profile -> serialize, and
/// between append batches) and returns the non-OK status it gets back.
/// The per-job PLI byte budget rides along so the body can clamp the
/// engine's cache budget against the server-wide policy.
class JobContext {
 public:
  JobId id() const { return id_; }

  bool CancelRequested() const {
    return cancel_->load(std::memory_order_acquire);
  }

  bool DeadlineExpired() const;

  /// OK while the job may keep running; Cancelled / DeadlineExceeded once
  /// a cancel arrived or the deadline passed. Cheap (one atomic load plus,
  /// with a deadline set, one clock read) — call it at every phase
  /// boundary.
  Status CheckAlive() const;

  /// Per-job PLI cache byte budget the scheduler was configured with
  /// (0 = no per-job cap).
  size_t pli_budget_bytes() const { return pli_budget_bytes_; }

 private:
  friend class JobScheduler;
  JobContext(JobId id, const std::atomic<bool>* cancel, int64_t deadline_us,
             size_t pli_budget_bytes)
      : id_(id),
        cancel_(cancel),
        deadline_us_(deadline_us),
        pli_budget_bytes_(pli_budget_bytes) {}

  JobId id_;
  const std::atomic<bool>* cancel_;
  int64_t deadline_us_;  // Steady-clock micros; 0 = no deadline.
  size_t pli_budget_bytes_;
};

/// The job body. A returned OK means kDone; a Cancelled / DeadlineExceeded
/// status (normally the one CheckAlive() handed back) means kCancelled /
/// kExpired; anything else means kFailed with the status preserved.
using JobFn = std::function<Status(JobContext&)>;

/// Per-submit knobs.
struct JobConfig {
  /// Higher runs first; FIFO within a priority level.
  int priority = 0;
  /// Relative deadline in milliseconds (0 = none). An expired job that has
  /// not started is dropped at dispatch; a running one is stopped at its
  /// next phase-boundary check.
  int64_t deadline_ms = 0;
};

/// Priority job scheduler on top of the engine ThreadPool — the admission
/// and dispatch layer of the serving story (ROADMAP, "Profiling-as-a-
/// service").
///
/// Dispatch model: each admitted job enqueues one pump task on the pool;
/// a pump pops the highest-priority queued job at the moment it runs, so
/// pool workers always take the most urgent work even though the pool
/// itself is FIFO. The number of outstanding pumps always equals the
/// number of queued entries (a pump that pops a cancelled or expired job
/// retires it and returns without running the body).
///
/// Admission control is bounded and explicit: at `max_queued` queued jobs
/// a Submit is rejected with OutOfRange ("queue full") instead of growing
/// the backlog, and once BeginShutdown() ran every Submit is rejected with
/// Unavailable — the two cases are distinct status codes so clients can
/// tell back-off from drain.
///
/// Thread safety: all public methods are safe from any thread. With a
/// single-threaded pool, pumps run inline inside Submit/Resume — the
/// deterministic path the unit tests pin ordering semantics on (combine
/// with `start_paused` to build up a backlog first).
///
/// Counters: serve.jobs_submitted / completed / rejected / cancelled /
/// expired / failed and serve.queue_wait_ns are registered eagerly so the
/// serving metrics are present (at zero) in every metrics delta. They are
/// the scheduler's only tally; NumQueued()/NumRunning() read live state.
class JobScheduler {
 public:
  struct Options {
    /// Admission bound on *queued* (not yet dispatched) jobs.
    size_t max_queued = 64;
    /// Per-job PLI byte budget surfaced through JobContext (0 = no cap).
    size_t job_budget_bytes = 0;
    /// Tests: hold every job in the queue until Resume().
    bool start_paused = false;
  };

  /// `pool` must outlive the scheduler.
  JobScheduler(ThreadPool* pool, const Options& options);
  explicit JobScheduler(ThreadPool* pool)
      : JobScheduler(pool, Options()) {}

  /// BeginShutdown() + Drain(): no job is left queued or running.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits `fn` or rejects it (OutOfRange = queue full, Unavailable =
  /// shutting down). On success the returned id is immediately queryable.
  Result<JobId> Submit(JobFn fn, const JobConfig& config = {});

  /// Requests cancellation. A queued job is retired (without running) when
  /// its pump reaches it; a running job stops at its next CheckAlive().
  /// Returns false for unknown ids and jobs already in a terminal state.
  bool Cancel(JobId id);

  /// Releases a paused scheduler's backlog (and any job submitted later).
  void Resume();

  /// Stops admitting: every subsequent Submit fails with Unavailable.
  /// Queued and running jobs are unaffected.
  void BeginShutdown();

  /// Blocks until no job is queued or running. Call Resume() first if the
  /// scheduler was started paused.
  void Drain();

  /// Blocks until `id` reaches a terminal state (true), the timeout lapses
  /// (false), or the id is unknown (false). timeout_ms < 0 waits forever.
  bool WaitTerminal(JobId id, int64_t timeout_ms = -1) const;

  /// Terminal or live state snapshot of one job; nullopt for unknown ids.
  struct JobInfo {
    JobState state = JobState::kQueued;
    /// Final status for kFailed / kCancelled / kExpired.
    Status status;
    /// Enqueue-to-dispatch wait; 0 until the job leaves the queue.
    int64_t queue_wait_ns = 0;
    int priority = 0;
  };
  std::optional<JobInfo> GetInfo(JobId id) const;

  /// Jobs admitted but not yet dispatched.
  size_t NumQueued() const;
  /// Jobs whose body is running.
  size_t NumRunning() const;

 private:
  struct Job {
    JobId id = 0;
    JobFn fn;
    int priority = 0;
    int64_t enqueue_us = 0;      // Steady-clock micros at admission.
    int64_t deadline_us = 0;     // 0 = none.
    JobState state = JobState::kQueued;
    Status final_status;
    int64_t queue_wait_ns = 0;
    std::atomic<bool> cancel{false};
  };

  /// Pops and handles exactly one queue entry (highest priority first).
  void PumpOne();

  /// Marks `job` terminal and accounts it. Caller must hold mutex_.
  void FinishLocked(Job* job, JobState state, Status status);

  /// Schedules `count` pump tasks on the pool. Caller must NOT hold
  /// mutex_ (with an inline pool the pumps run inside this call).
  void SchedulePumps(size_t count);

  ThreadPool* pool_;
  Options options_;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  /// Queued ids per priority, highest priority first, FIFO within.
  std::map<int, std::deque<JobId>, std::greater<int>> queues_;
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  JobId next_id_ = 1;
  size_t queued_ = 0;
  size_t running_ = 0;
  bool paused_ = false;
  bool shutting_down_ = false;
};

}  // namespace serve
}  // namespace muds

#endif  // MUDS_SERVE_JOB_SCHEDULER_H_
