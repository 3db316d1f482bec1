#ifndef MUDS_COMMON_METRICS_H_
#define MUDS_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace muds {

/// A sorted (by name) list of metric values — what MetricsRegistry::Snapshot
/// returns and what reports/benches serialize.
using MetricsSnapshot = std::vector<std::pair<std::string, int64_t>>;

/// One run's view of the registry: a cell per instrument. While a
/// MetricsScope makes the run current on a thread, Counter::Add and
/// Gauge::Add there (and in the ThreadPool tasks the thread submits) also
/// credit the run and each run it nests in — the run that was current
/// where it was created. Other runs' work never reaches it. Shared-owned,
/// so a pool task that outlives its submitter's scope still credits live
/// memory.
class RunMetrics : public std::enable_shared_from_this<RunMetrics> {
 public:
  /// The registry refuses to register more instruments than this.
  static constexpr size_t kMaxInstruments = 1024;

  explicit RunMetrics(std::shared_ptr<RunMetrics> parent)
      : parent_(std::move(parent)) {}

  /// Every registered instrument, sorted by name, even at zero (as Delta
  /// does). Gauge::Set is process-only, so a Set-only gauge reads 0.
  MetricsSnapshot Snapshot() const;

  /// The calling thread's current run, or null.
  static std::shared_ptr<RunMetrics> Current();

  /// Lock-free; a no-op without a current run.
  static void Credit(size_t id, int64_t delta);

 private:
  friend class MetricsRegistry;

  const std::shared_ptr<RunMetrics> parent_;
  std::array<std::atomic<int64_t>, kMaxInstruments> cells_{};
};

/// RAII: makes a run the calling thread's current run, and restores the
/// previous one at the end. The default constructor starts a fresh run
/// nested in the current one; the other re-enters `run` (null: none), as
/// pool workers and objects that count several calls as one run do.
class MetricsScope {
 public:
  MetricsScope();
  explicit MetricsScope(std::shared_ptr<RunMetrics> run);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  const std::shared_ptr<RunMetrics>& run() const { return run_; }

 private:
  std::shared_ptr<RunMetrics> run_;
  RunMetrics* previous_;
};

/// Process-wide monotonic counter with per-thread striping: Add() touches
/// one cache-line-private atomic cell chosen by the calling thread, so
/// concurrent increments from the pool workers never contend on one line.
/// Value() sums the cells; it is exact once the incrementing threads have
/// quiesced (joined or reached a barrier) and approximate while they run —
/// the usual trade of a striped counter.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Lock-free; safe from any thread. `delta` should be >= 0 (counters are
  /// monotonic; use a Gauge for values that go down).
  void Add(int64_t delta) {
    cells_[CellIndex()].value.fetch_add(delta, std::memory_order_relaxed);
    RunMetrics::Credit(id_, delta);
  }
  void Increment() { Add(1); }

  /// Sum over all cells.
  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;

  /// `id` (< RunMetrics::kMaxInstruments) indexes a run's cells.
  Counter(std::string name, size_t id) : name_(std::move(name)), id_(id) {}

  /// Enough stripes that a machine-sized pool rarely collides; each cell
  /// occupies its own cache line.
  static constexpr size_t kNumCells = 32;
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };

  /// Dense per-thread id modulo kNumCells (assigned on each thread's first
  /// metric touch; defined in metrics.cc).
  static size_t CellIndex();

  std::string name_;
  size_t id_;
  std::array<Cell, kNumCells> cells_;
};

/// Last-write-wins instantaneous value (queue depth, bytes cached, ...).
/// A single atomic: gauges are written at coarse points, not on hot paths.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    RunMetrics::Credit(id_, delta);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;

  Gauge(std::string name, size_t id) : name_(std::move(name)), id_(id) {}

  std::string name_;
  size_t id_;
  std::atomic<int64_t> value_{0};
};

/// Process-wide registry of named counters and gauges — the single counter
/// channel every subsystem (ingest, dedup, PLI cache, thread pool, SPIDER,
/// DUCC, the MUDS, FUN and TANE lattices) reports through. A run's view of
/// it is a RunMetrics. Handles returned by GetCounter/GetGauge are
/// stable for the process lifetime, so call sites resolve a metric once and
/// increment through the pointer on the hot path.
///
/// Thread safety: GetCounter/GetGauge/Snapshot may be called concurrently
/// with each other and with Add/Set on any handle. Registration takes a
/// mutex (it is rare); increments never do.
class MetricsRegistry {
 public:
  /// The process-wide instance.
  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it (at value 0)
  /// on first use. Never returns null.
  Counter* GetCounter(const std::string& name);

  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name);

  /// Current value of every registered counter and gauge, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Per-name `after - before` for every name in `after` (names absent from
  /// `before` are treated as 0 there). Zero deltas are kept: a registered
  /// counter that did not move is still part of the report, which is what
  /// the CI presence check relies on. Both inputs must be sorted by name
  /// (Snapshot() output is).
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

 private:
  friend class RunMetrics;

  MetricsRegistry() = default;

  /// Snapshot() of the global cells (run == null) or of a run's.
  MetricsSnapshot Collect(const RunMetrics* run) const;
  size_t NextId();  // Caller holds mutex_.

  mutable std::mutex mutex_;
  size_t num_instruments_ = 0;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

namespace metrics {

/// Convenience for cold paths and end-of-phase flushes: one registry
/// look-up plus an Add. Hot paths should cache the Counter* instead.
inline void Add(const std::string& name, int64_t delta) {
  MetricsRegistry::Global().GetCounter(name)->Add(delta);
}

inline void SetGauge(const std::string& name, int64_t value) {
  MetricsRegistry::Global().GetGauge(name)->Set(value);
}

/// The value `snapshot` (sorted by name) holds for `name`; 0 if absent.
int64_t ValueOf(const MetricsSnapshot& snapshot, std::string_view name);

}  // namespace metrics

}  // namespace muds

#endif  // MUDS_COMMON_METRICS_H_
