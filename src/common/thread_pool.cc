#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"

namespace muds {

namespace {

// Registry handles shared by every pool instance. Resolved once; touched by
// the constructor so thread_pool.* counters exist (at zero) even for runs
// that never enqueue — single-threaded runs execute everything inline.
struct PoolCounters {
  Counter* tasks_executed;
  Counter* task_wait_us;
  Gauge* queue_depth;

  static const PoolCounters& Get() {
    static const PoolCounters counters = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      PoolCounters c;
      c.tasks_executed = registry.GetCounter("thread_pool.tasks_executed");
      c.task_wait_us = registry.GetCounter("thread_pool.task_wait_us");
      c.queue_depth = registry.GetGauge("thread_pool.queue_depth");
      return c;
    }();
    return counters;
  }
};

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  PoolCounters::Get();  // Register the thread_pool.* metrics.
  MUDS_CHECK(num_threads >= 0);
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  // The caller counts as one executor (it drives ParallelFor loops), so
  // only num_threads - 1 dedicated workers are needed.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MUDS_CHECK_MSG(!stop_, "Submit after ThreadPool destruction began");
    queue_.push_back(
        QueuedTask{std::move(task), SteadyMicros(), RunMetrics::Current()});
    PoolCounters::Get().queue_depth->Set(
        static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::NoteInlineTask() {
  PoolCounters::Get().tasks_executed->Increment();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      PoolCounters::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
    const MetricsScope scope(std::move(task.run));
    const PoolCounters& counters = PoolCounters::Get();
    counters.task_wait_us->Add(SteadyMicros() - task.enqueue_us);
    counters.tasks_executed->Increment();
    task.fn();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& body) {
  if (begin >= end) return;
  if (num_threads_ <= 1 || end - begin == 1) {
    for (int64_t i = begin; i < end; ++i) body(i);
    return;
  }

  // The caller waits for *iterations*, never for the helper wrappers: a
  // wrapper that only gets scheduled after the range is exhausted claims
  // nothing, touches only the shared state block (kept alive by its
  // shared_ptr), and exits. That way the caller alone can always finish the
  // loop — nested ParallelFor cannot deadlock even when every worker is
  // blocked inside some outer loop — and never blocks on queue scheduling.
  struct LoopState {
    std::atomic<int64_t> next;
    std::atomic<int64_t> remaining;
    int64_t end;
    const std::function<void(int64_t)>* body;
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<LoopState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->remaining.store(end - begin, std::memory_order_relaxed);
  state->end = end;
  state->body = &body;

  // Claims iterations until the range is exhausted. After a failure the
  // remaining iterations are still claimed (cheap atomic ops) but their
  // bodies are skipped, so `remaining` always reaches zero.
  auto drain = [](LoopState* s) {
    for (;;) {
      const int64_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->end) return;
      if (!s->failed.load(std::memory_order_relaxed)) {
        try {
          (*s->body)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(s->error_mutex);
            if (!s->error) s->error = std::current_exception();
          }
          s->failed.store(true, std::memory_order_relaxed);
        }
      }
      if (s->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(s->done_mutex);
        s->done_cv.notify_all();
      }
    }
  };

  const int helpers = static_cast<int>(
      std::min<int64_t>(num_threads_ - 1, end - begin - 1));
  for (int h = 0; h < helpers; ++h) {
    Enqueue([state, drain] { drain(state.get()); });
  }

  drain(state.get());

  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&state] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelForOrInline(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t)>& body) {
  if (pool != nullptr && pool->NumThreads() > 1) {
    pool->ParallelFor(0, n, body);
  } else {
    for (int64_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace muds
