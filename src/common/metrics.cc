#include "common/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace muds {

namespace {

// The calling thread's current run. A raw pointer keeps Credit() cheap; the
// MetricsScope that installed the run owns a reference for as long as it
// is current.
thread_local RunMetrics* current_run = nullptr;

}  // namespace

std::shared_ptr<RunMetrics> RunMetrics::Current() {
  return current_run != nullptr ? current_run->shared_from_this() : nullptr;
}

void RunMetrics::Credit(size_t id, int64_t delta) {
  for (RunMetrics* run = current_run; run != nullptr;
       run = run->parent_.get()) {
    run->cells_[id].fetch_add(delta, std::memory_order_relaxed);
  }
}

MetricsSnapshot RunMetrics::Snapshot() const {
  return MetricsRegistry::Global().Collect(this);
}

MetricsScope::MetricsScope()
    : MetricsScope(std::make_shared<RunMetrics>(RunMetrics::Current())) {}

MetricsScope::MetricsScope(std::shared_ptr<RunMetrics> run)
    : run_(std::move(run)), previous_(current_run) {
  current_run = run_.get();
}

MetricsScope::~MetricsScope() { current_run = previous_; }

size_t Counter::CellIndex() {
  static std::atomic<size_t> next_thread_id{0};
  thread_local const size_t id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id % kNumCells;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

size_t MetricsRegistry::NextId() {
  MUDS_CHECK_MSG(num_instruments_ < RunMetrics::kMaxInstruments,
                 "too many registered metrics");
  return num_instruments_++;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter(name, NextId()));
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge(name, NextId()));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const { return Collect(nullptr); }

MetricsSnapshot MetricsRegistry::Collect(const RunMetrics* run) const {
  const auto value = [run](const auto& instrument) {
    return run != nullptr
               ? run->cells_[instrument.id_].load(std::memory_order_relaxed)
               : instrument.Value();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.reserve(counters_.size() + gauges_.size());
  // std::map iteration is sorted; counters and gauges are merged by name so
  // the combined snapshot stays sorted.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool take_counter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first < g->first);
    if (take_counter) {
      snapshot.emplace_back(c->first, value(*c->second));
      ++c;
    } else {
      snapshot.emplace_back(g->first, value(*g->second));
      ++g;
    }
  }
  return snapshot;
}

MetricsSnapshot MetricsRegistry::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  delta.reserve(after.size());
  auto b = before.begin();
  for (const auto& [name, value] : after) {
    while (b != before.end() && b->first < name) ++b;
    const int64_t base =
        (b != before.end() && b->first == name) ? b->second : 0;
    delta.emplace_back(name, value - base);
  }
  return delta;
}

namespace metrics {

int64_t ValueOf(const MetricsSnapshot& snapshot, std::string_view name) {
  const auto it =
      std::lower_bound(snapshot.begin(), snapshot.end(), name,
                       [](const auto& entry, std::string_view key) {
                         return entry.first < key;
                       });
  return it != snapshot.end() && it->first == name ? it->second : 0;
}

}  // namespace metrics

}  // namespace muds
