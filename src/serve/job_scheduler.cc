#include "serve/job_scheduler.h"

#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace muds {
namespace serve {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SchedulerCounters {
  Counter* submitted;
  Counter* completed;
  Counter* rejected;
  Counter* cancelled;
  Counter* expired;
  Counter* failed;
  Counter* queue_wait_ns;

  SchedulerCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    submitted = registry.GetCounter("serve.jobs_submitted");
    completed = registry.GetCounter("serve.jobs_completed");
    rejected = registry.GetCounter("serve.jobs_rejected");
    cancelled = registry.GetCounter("serve.jobs_cancelled");
    expired = registry.GetCounter("serve.jobs_expired");
    failed = registry.GetCounter("serve.jobs_failed");
    queue_wait_ns = registry.GetCounter("serve.queue_wait_ns");
  }
};

SchedulerCounters& Counters() {
  static SchedulerCounters counters;
  return counters;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
  }
  return "unknown";
}

bool JobContext::DeadlineExpired() const {
  return deadline_us_ != 0 && NowMicros() > deadline_us_;
}

Status JobContext::CheckAlive() const {
  if (CancelRequested()) {
    return Status::Cancelled("job " + std::to_string(id_) + " cancelled");
  }
  if (DeadlineExpired()) {
    return Status::DeadlineExceeded("job " + std::to_string(id_) +
                                    " ran past its deadline");
  }
  return Status::Ok();
}

JobScheduler::JobScheduler(ThreadPool* pool, const Options& options)
    : pool_(pool), options_(options), paused_(options.start_paused) {
  Counters();  // Eager registration: serve.* present in every snapshot.
}

JobScheduler::~JobScheduler() {
  BeginShutdown();
  Resume();  // A paused backlog would deadlock Drain().
  Drain();
}

Result<JobId> JobScheduler::Submit(JobFn fn, const JobConfig& config) {
  const int64_t now_us = NowMicros();
  JobId id = 0;
  bool pump = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      Counters().rejected->Increment();
      return Status::Unavailable("scheduler is shutting down");
    }
    if (queued_ >= options_.max_queued) {
      Counters().rejected->Increment();
      return Status::OutOfRange("job queue full (" +
                                std::to_string(options_.max_queued) +
                                " queued)");
    }
    auto job = std::make_unique<Job>();
    id = next_id_++;
    job->id = id;
    job->fn = std::move(fn);
    job->priority = config.priority;
    job->enqueue_us = now_us;
    if (config.deadline_ms > 0) {
      job->deadline_us = now_us + config.deadline_ms * 1000;
    }
    queues_[config.priority].push_back(id);
    jobs_.emplace(id, std::move(job));
    queued_++;
    Counters().submitted->Increment();
    pump = !paused_;
  }
  if (pump) SchedulePumps(1);
  return id;
}

bool JobScheduler::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job* job = it->second.get();
  if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
    return false;
  }
  job->cancel.store(true, std::memory_order_release);
  return true;
}

void JobScheduler::Resume() {
  size_t backlog = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!paused_) return;
    paused_ = false;
    backlog = queued_;
  }
  SchedulePumps(backlog);
}

void JobScheduler::BeginShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutting_down_ = true;
}

void JobScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

bool JobScheduler::WaitTerminal(JobId id, int64_t timeout_ms) const {
  const auto terminal = [this, id] {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return true;  // Unknown: nothing to wait for.
    const JobState state = it->second->state;
    return state != JobState::kQueued && state != JobState::kRunning;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  if (jobs_.find(id) == jobs_.end()) return false;
  if (timeout_ms < 0) {
    cv_.wait(lock, terminal);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), terminal);
}

std::optional<JobScheduler::JobInfo> JobScheduler::GetInfo(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobInfo info;
  info.state = job.state;
  info.status = job.final_status;
  info.queue_wait_ns = job.queue_wait_ns;
  info.priority = job.priority;
  return info;
}

size_t JobScheduler::NumQueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

size_t JobScheduler::NumRunning() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void JobScheduler::FinishLocked(Job* job, JobState state, Status status) {
  job->state = state;
  job->final_status = std::move(status);
  switch (state) {
    case JobState::kDone:
      Counters().completed->Increment();
      break;
    case JobState::kCancelled:
      Counters().cancelled->Increment();
      break;
    case JobState::kExpired:
      Counters().expired->Increment();
      break;
    case JobState::kFailed:
      Counters().failed->Increment();
      break;
    default:
      break;
  }
  cv_.notify_all();
}

void JobScheduler::SchedulePumps(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    // The future is discarded: PumpOne reports through the job record, and
    // it never throws. With an inline pool the pump runs right here.
    pool_->Submit([this] { PumpOne(); });
  }
}

void JobScheduler::PumpOne() {
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Highest priority first; FIFO within a level. Every queue entry has
    // exactly one pump, so the queues cannot be empty here — but guard
    // anyway (a future caller could add opportunistic pumps).
    while (!queues_.empty()) {
      auto level = queues_.begin();
      if (level->second.empty()) {
        queues_.erase(level);
        continue;
      }
      const JobId id = level->second.front();
      level->second.pop_front();
      if (level->second.empty()) queues_.erase(level);
      job = jobs_.at(id).get();
      break;
    }
    if (job == nullptr) return;
    queued_--;
    job->queue_wait_ns = (NowMicros() - job->enqueue_us) * 1000;
    Counters().queue_wait_ns->Add(job->queue_wait_ns);
    if (job->cancel.load(std::memory_order_acquire)) {
      FinishLocked(job, JobState::kCancelled,
                   Status::Cancelled("cancelled while queued"));
      return;
    }
    if (job->deadline_us != 0 && NowMicros() > job->deadline_us) {
      FinishLocked(job, JobState::kExpired,
                   Status::DeadlineExceeded("deadline passed while queued"));
      return;
    }
    job->state = JobState::kRunning;
    running_++;
  }

  Status status;
  {
    MUDS_TRACE_SPAN("serveJob",
                    "{\"job\":" + std::to_string(job->id) + "}");
    JobContext context(job->id, &job->cancel, job->deadline_us,
                       options_.job_budget_bytes);
    status = job->fn(context);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  running_--;
  if (status.ok()) {
    FinishLocked(job, JobState::kDone, Status::Ok());
  } else if (status.code() == StatusCode::kCancelled ||
             job->cancel.load(std::memory_order_acquire)) {
    FinishLocked(job, JobState::kCancelled, std::move(status));
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    FinishLocked(job, JobState::kExpired, std::move(status));
  } else {
    FinishLocked(job, JobState::kFailed, std::move(status));
  }
}

}  // namespace serve
}  // namespace muds
