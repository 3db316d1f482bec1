#ifndef MUDS_COMMON_THREAD_POOL_H_
#define MUDS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace muds {

class RunMetrics;

/// Fixed-size work-queue thread pool — the parallel execution substrate for
/// the profiling engine (the paper attributes the dominant cost to PLI
/// intersects and FD checks, §6.4; the per-right-hand-side sub-lattice
/// traversals of §5.2 are independent, so running many at once is the main
/// lever on large relations).
///
/// `num_threads == 0` resolves to the hardware concurrency; `num_threads ==
/// 1` spawns no workers at all: Submit and ParallelFor run inline on the
/// caller, which makes the single-threaded path deterministic and
/// bit-identical to code that never heard of the pool.
///
/// ParallelFor lets the calling thread participate in the loop, so it makes
/// progress even when every worker is busy (and may therefore be nested
/// inside pool tasks without deadlock).
///
/// Work a task does is counted in its submitter's metrics run: Submit and
/// ParallelFor capture the calling thread's current RunMetrics, and the
/// worker re-enters it around the task (common/metrics.h).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work, including the inline caller for
  /// the `num_threads == 1` configuration. Always >= 1.
  int NumThreads() const { return num_threads_; }

  /// Schedules `fn` and returns a future for its result. With one thread
  /// the call runs inline before Submit returns. Exceptions thrown by `fn`
  /// surface from future.get(). Submitting from inside a pool task is
  /// allowed; blocking on the returned future from inside a pool task is
  /// not (it can deadlock when all workers wait on queued work) — use
  /// ParallelFor for nested fan-out instead.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (num_threads_ <= 1) {
      (*task)();
      NoteInlineTask();
      return future;
    }
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs `body(i)` for every i in [begin, end) and blocks until all
  /// iterations finish. Iterations are claimed dynamically (atomic
  /// counter), so uneven per-iteration cost balances automatically. The
  /// caller executes iterations too. The first exception thrown by any
  /// iteration is rethrown on the caller after the loop drains; remaining
  /// unstarted iterations are skipped once a failure is seen.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& body);

 private:
  // A queued task remembers when it entered the queue, so the pool can
  // account the enqueue-to-start wait in thread_pool.task_wait_us, and the
  // submitter's metrics run, which the worker credits while it runs it.
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_us = 0;
    std::shared_ptr<RunMetrics> run;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();
  /// Counts a task that ran inline on the caller (single-threaded pool).
  void NoteInlineTask();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs `body(i)` for every i in [0, n): through `pool->ParallelFor` when
/// the pool has more than one thread, inline on the caller otherwise (also
/// for a null pool).
void ParallelForOrInline(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t)>& body);

}  // namespace muds

#endif  // MUDS_COMMON_THREAD_POOL_H_
