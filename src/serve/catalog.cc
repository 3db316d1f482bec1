#include "serve/catalog.h"

#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "common/metrics.h"

namespace muds {
namespace serve {

namespace {

struct CatalogCounters {
  Counter* hits;
  Counter* misses;
  Counter* coalesced;
  Counter* evictions;

  CatalogCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    hits = registry.GetCounter("serve.catalog_hits");
    misses = registry.GetCounter("serve.catalog_misses");
    coalesced = registry.GetCounter("serve.catalog_coalesced");
    evictions = registry.GetCounter("serve.catalog_evictions");
  }
};

CatalogCounters& Counters() {
  static CatalogCounters counters;
  return counters;
}

void AppendBlobFingerprint(std::string_view blob, std::string* key) {
  // Two independently-seeded streams: 128 effective bits per blob, so a
  // birthday collision across distinct tables is out of reach.
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(HashBytes(blob)),
                static_cast<unsigned long long>(
                    HashBytes(blob, 0xE7037ED1A0B428DBull)));
  *key += buf;
}

}  // namespace

ResultCatalog::ResultCatalog(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {
  Counters();  // Eager registration: serve.catalog_* in every snapshot.
}

std::string ResultCatalog::KeyFor(std::string_view base_csv,
                                  const std::vector<std::string>& appends,
                                  const ProfileOptions& options) {
  std::string key;
  key.reserve(64 + 33 * (1 + appends.size()));
  // Result-affecting options only (see class comment).
  key += AlgorithmName(options.algorithm);
  key += '/';
  key += std::to_string(options.seed);
  key += '/';
  key += options.csv.separator;
  key += options.csv.has_header ? "h" : "n";
  key += std::to_string(options.csv.max_rows);
  key += '/';
  AppendBlobFingerprint(options.csv.null_token, &key);
  key += options.csv.nulls == NullSemantics::kNullUnequal ? "u" : "e";
  key += ':';
  AppendBlobFingerprint(base_csv, &key);
  for (const std::string& append : appends) {
    key += '+';
    AppendBlobFingerprint(append, &key);
  }
  return key;
}

std::shared_ptr<const ResultCatalog::Value> ResultCatalog::FindOrBegin(
    const std::string& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Counters().misses->Increment();
    entries_.emplace(key, Entry{});
    return nullptr;
  }
  if (it->second.value != nullptr) {
    Counters().hits->Increment();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }
  // Pending: coalesce onto the in-flight computation.
  Counters().hits->Increment();
  Counters().coalesced->Increment();
  it->second.waiters++;
  for (;;) {
    cv_.wait(lock, [this, &key] {
      auto entry = entries_.find(key);
      return entry == entries_.end() || entry->second.value != nullptr ||
             entry->second.reassigned;
    });
    auto entry = entries_.find(key);
    if (entry == entries_.end()) {
      // The computer aborted with no other waiters left and the entry is
      // gone; recreate it and take over.
      entries_.emplace(key, Entry{});
      return nullptr;
    }
    entry->second.waiters--;
    if (entry->second.value != nullptr) return entry->second.value;
    if (entry->second.reassigned) {
      // Promoted: this caller computes now.
      entry->second.reassigned = false;
      return nullptr;
    }
    entry->second.waiters++;  // Spurious pass; keep waiting.
  }
}

void ResultCatalog::Publish(const std::string& key,
                            std::shared_ptr<const Value> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Entry was recreated/abandoned meanwhile; publish fresh.
    it = entries_.emplace(key, Entry{}).first;
  }
  if (it->second.value != nullptr) return;  // Racing duplicate publish.
  it->second.value = std::move(value);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  EvictLocked();
  cv_.notify_all();
}

void ResultCatalog::Abort(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.value != nullptr) return;
  if (it->second.waiters > 0) {
    it->second.reassigned = true;  // Exactly one waiter claims it.
  } else {
    entries_.erase(it);
  }
  cv_.notify_all();
}

void ResultCatalog::EvictLocked() {
  while (lru_.size() > max_entries_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    Counters().evictions->Increment();
  }
}

size_t ResultCatalog::NumEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace serve
}  // namespace muds
