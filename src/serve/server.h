#ifndef MUDS_SERVE_SERVER_H_
#define MUDS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/profiler.h"
#include "serve/catalog.h"
#include "serve/job_scheduler.h"

namespace muds {
namespace serve {

/// Profiling-as-a-service daemon: a long-running TCP server (127.0.0.1
/// only) speaking a length-prefixed JSON protocol, scheduling concurrent
/// profiling jobs onto the engine ThreadPool through JobScheduler and
/// answering repeat submissions from the content-hash ResultCatalog.
///
/// Frame format (both directions): a 4-byte big-endian payload length
/// followed by that many bytes of UTF-8 JSON. Frames above 256 MiB are
/// rejected (the connection is closed — a corrupt length would otherwise
/// stall the read loop on gigabytes).
///
/// Requests ({"cmd": ...}):
///   submit   {"csv": TEXT, "appends": [TEXT...], "priority": N,
///             "deadline_ms": N, "algorithm": "muds|hfun|baseline|auto",
///             "seed": N}
///            -> {"ok": true, "job": ID, "state": "queued"} or
///               {"ok": false, "code": "OutOfRange"|"Unavailable", ...}
///            An `appends` array holds headerless row batches in the
///            base's dialect: the job grows the parsed base by them and
///            profiles once, with the result of profiling the
///            concatenation.
///   status   {"job": ID} -> {"ok": true, "state": ...}
///   result   {"job": ID, "timeout_ms": N} — blocks until terminal ->
///            {"ok": true, "state": "done", "catalog_hit": BOOL,
///             "queue_wait_ns": N, "serve": {counters...},
///             "result": {muds_profile --json document}}
///   cancel   {"job": ID} -> {"ok": true, "cancelled": BOOL}
///   stats    {} -> {"ok": true, "draining": BOOL, "serve": {counters...},
///                   "catalog": {"entries": N},
///                   "scheduler": {"queued": N, "running": N}}
///   shutdown {} -> drains running jobs, then
///                  {"ok": true, "jobs_completed": N}
///
/// "serve" holds every registered serve.* counter (jobs_*, queue_wait_ns,
/// catalog_*), zeros included: the registry is the one count of jobs and
/// catalog events. "catalog" and "scheduler" are live state, not tallies;
/// "jobs_completed" is serve.jobs_completed.
///
/// Numeric fields must be integers in range, or the reply is an
/// InvalidArgument error frame: "seed" and "job" in [0, 2^53] (larger
/// values do not survive JSON's doubles), "priority" in int's range,
/// "deadline_ms" in [0, 2^40] and "timeout_ms" in [-2^40, 2^40] (negative
/// waits without a timeout).
///
/// Graceful shutdown (the `shutdown` command, SIGTERM in the daemon, or
/// Shutdown()): admission stops first — new submits are rejected with the
/// distinct Unavailable code while in-flight jobs drain — then the
/// listener closes, connections are unblocked, and Wait() returns. Every
/// started job reaches a terminal state before the process exits, so ASan
/// sees no leaked jobs, threads, or sockets.
class Server {
 public:
  struct Options {
    /// Listen port; 0 = ephemeral (the bound port is in port()).
    int port = 0;
    /// Engine worker threads (0 = hardware concurrency). Note threads=1
    /// runs jobs inline on the submitting connection's thread.
    int num_threads = 0;
    /// Admission bound: queued jobs beyond this are rejected.
    size_t max_jobs = 64;
    /// Per-job PLI cache byte budget (0 = no per-job cap). Clamps every
    /// job's pli_budget_bytes, bounding what one job may pin of the
    /// process's PLI memory.
    size_t job_budget_bytes = 0;
    /// Result catalog capacity (ready entries, LRU beyond).
    size_t catalog_entries = 256;
    /// Base ProfileOptions for every job (CSV dialect, spill tier, ...).
    /// Per-request fields (algorithm, seed, priority, deadline) override.
    ProfileOptions profile;
  };

  explicit Server(const Options& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. IoError on bind failure.
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Blocks until the server has fully shut down (all jobs drained, all
  /// connection threads joined).
  void Wait();

  /// Initiates graceful shutdown; idempotent, safe from any thread and
  /// from a signal-watcher. Returns once drained.
  void Shutdown();

  /// True once shutdown has begun (draining or finished).
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  /// What the server remembers per job beyond the scheduler's record.
  struct JobRecord {
    std::shared_ptr<const ResultCatalog::Value> value;  // Set when done.
    bool catalog_hit = false;
    std::mutex mutex;  // Guards value/catalog_hit.
  };

  void AcceptLoop();
  void HandleConnection(int fd);

  /// One request frame -> one response frame (JSON text, unframed).
  std::string HandleRequest(const std::string& request_text,
                            bool* shutdown_requested);

  std::string HandleSubmit(const json::Value& request);
  std::string HandleStatus(const json::Value& request);
  std::string HandleResult(const json::Value& request);
  std::string HandleCancel(const json::Value& request);
  std::string HandleStats();

  /// The job body: catalog lookup/coalesce -> parse, grow by any append
  /// batches, profile -> serialize + publish, with JobContext::CheckAlive()
  /// at every phase boundary.
  Status RunProfileJob(JobContext& context, std::shared_ptr<std::string> csv,
                       std::shared_ptr<std::vector<std::string>> appends,
                       ProfileOptions options,
                       std::shared_ptr<JobRecord> record);

  /// Every registered serve.* counter as a JSON object.
  json::Value ServeCountersJson() const;

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<JobScheduler> scheduler_;
  ResultCatalog catalog_;

  std::thread accept_thread_;
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;

  mutable std::mutex mutex_;  // Guards records_ and connections_.
  std::unordered_map<JobId, std::shared_ptr<JobRecord>> records_;
  struct Connection {
    int fd = -1;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace muds

#endif  // MUDS_SERVE_SERVER_H_
