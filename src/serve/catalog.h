#ifndef MUDS_SERVE_CATALOG_H_
#define MUDS_SERVE_CATALOG_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/profiler.h"

namespace muds {
namespace serve {

/// Content-addressed result catalog: repeat submissions of an identical
/// table (same bytes, same result-affecting options) return the cached
/// ProfilingResult instead of recomputing — the serving layer's answer to
/// the ROADMAP's "millions of users" repeat-request pattern.
///
/// Keying: KeyFor() fingerprints the base CSV bytes and every append batch
/// with two independently-seeded HashBytes streams (128 effective bits per
/// blob, so near-misses — one changed byte — land on distinct keys) plus
/// the result-affecting profile options (algorithm, traversal seed, CSV
/// dialect, row cap). Deliberately absent: threads, PLI budget, spill, and
/// sampling, which are all bit-identical knobs — a repeat request hits
/// regardless of the execution strategy that computed the entry.
///
/// Coalescing: FindOrBegin() returns a ready value (hit), registers the
/// caller as the computing job (miss, returns nullptr), or — when another
/// job is already computing the same key — blocks until that job publishes
/// and returns its value (counted as a hit: the wait is far cheaper than a
/// duplicate profile). If the computing job aborts (failure / cancel), one
/// blocked waiter is promoted to computer and the rest keep waiting.
///
/// Eviction: ready entries beyond `max_entries` are dropped LRU (a hit
/// refreshes recency). Pending entries are not counted against the bound.
///
/// Counters: serve.catalog_hits / misses / coalesced / evictions, registered
/// eagerly, are the catalog's only tally; NumEntries() reads live state.
///
/// Thread safety: all methods are safe from any thread.
class ResultCatalog {
 public:
  /// One cached profile: the result object and its serialized JSON report
  /// (rendered once, embedded verbatim into every job response).
  struct Value {
    ProfilingResult result;
    std::string json;
  };

  explicit ResultCatalog(size_t max_entries = 256);

  /// Content-hash key for a submission.
  static std::string KeyFor(std::string_view base_csv,
                            const std::vector<std::string>& appends,
                            const ProfileOptions& options);

  /// See class comment. nullptr = this caller computes and must later call
  /// Publish() or Abort() for `key`.
  std::shared_ptr<const Value> FindOrBegin(const std::string& key);

  /// Publishes the computed value under `key` and wakes coalesced waiters.
  void Publish(const std::string& key, std::shared_ptr<const Value> value);

  /// Abandons a computation (job failed, cancelled, or expired): promotes
  /// one waiter to computer, or removes the pending entry if none wait.
  void Abort(const std::string& key);

  /// Ready entries currently cached.
  size_t NumEntries() const;

 private:
  struct Entry {
    /// nullptr while a computation is pending.
    std::shared_ptr<const Value> value;
    /// Coalesced waiters blocked on this pending entry.
    size_t waiters = 0;
    /// True when Abort promoted a waiter: exactly one waiter wakes up,
    /// claims the computation, and clears the flag.
    bool reassigned = false;
    /// Recency position in lru_ (ready entries only).
    std::list<std::string>::iterator lru_pos;
  };

  /// Drops LRU ready entries beyond max_entries_. Caller holds mutex_.
  void EvictLocked();

  const size_t max_entries_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> entries_;
  /// Most-recently-used first.
  std::list<std::string> lru_;
};

}  // namespace serve
}  // namespace muds

#endif  // MUDS_SERVE_CATALOG_H_
