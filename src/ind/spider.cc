#include "ind/spider.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace muds {

std::vector<Ind> Spider::Discover(const Relation& relation) {
  int64_t cursor_advances = 0;
  int64_t value_groups = 0;
  const int n = relation.NumColumns();
  std::vector<ColumnSet> candidates(static_cast<size_t>(n),
                                    ColumnSet::FirstN(n));

  // Cursor of each column into its sorted duplicate-free dictionary.
  struct Cursor {
    std::string_view value;
    int column;
  };
  struct CursorGreater {
    // Min-heap ordering.
    bool operator()(const Cursor& a, const Cursor& b) const {
      return a.value != b.value ? a.value > b.value : a.column > b.column;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, CursorGreater> heap;
  std::vector<size_t> position(static_cast<size_t>(n), 0);
  // Resolve each column's sorted duplicate-free dictionary to a span once;
  // the pop loop advances through these without re-reading the relation.
  struct DictSpan {
    const std::string* values;
    size_t size;
  };
  std::vector<DictSpan> dicts(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    const auto& dict = relation.GetColumn(c).dictionary;
    dicts[static_cast<size_t>(c)] = DictSpan{dict.data(), dict.size()};
    if (!dict.empty()) heap.push(Cursor{dict[0], c});
  }

  while (!heap.empty()) {
    // Collect the group of attributes that all contain the smallest value.
    const std::string_view value = heap.top().value;
    ++value_groups;
    ColumnSet group;
    while (!heap.empty() && heap.top().value == value) {
      group.Add(heap.top().column);
      heap.pop();
    }
    // Attributes holding this value can only be included in one another.
    for (int c = group.First(); c >= 0; c = group.NextAtLeast(c + 1)) {
      candidates[static_cast<size_t>(c)] =
          candidates[static_cast<size_t>(c)].Intersect(group);
      const DictSpan& dict = dicts[static_cast<size_t>(c)];
      ++cursor_advances;
      if (++position[static_cast<size_t>(c)] < dict.size) {
        heap.push(Cursor{dict.values[position[static_cast<size_t>(c)]], c});
      }
    }
  }
  metrics::Add("spider.cursor_advances", cursor_advances);
  metrics::Add("spider.value_groups", value_groups);

  std::vector<Ind> inds;
  for (int a = 0; a < n; ++a) {
    const ColumnSet& refs = candidates[static_cast<size_t>(a)];
    for (int b = refs.First(); b >= 0; b = refs.NextAtLeast(b + 1)) {
      if (b != a) inds.push_back(Ind{a, b});
    }
  }
  Canonicalize(&inds);
  return inds;
}

namespace {

// Reads one length-prefixed sorted run ([uint32 len][bytes]...) from a
// SpillPool extent through a bounded buffer. The view returned by Next stays
// valid until the following Next call on the same reader — exactly the
// lifetime the merge heap needs (each column holds at most one cursor).
class RunReader {
 public:
  RunReader(const SpillPool* pool, SpillHandle handle, size_t buffer_bytes)
      : pool_(pool), handle_(handle) {
    buffer_.resize(buffer_bytes < 64 ? 64 : buffer_bytes);
  }

  // Advances to the next value; returns false at end of run.
  bool Next(std::string_view* value) {
    if (!Ensure(sizeof(uint32_t))) return false;
    uint32_t length;
    std::memcpy(&length, buffer_.data() + pos_, sizeof(length));
    pos_ += sizeof(length);
    if (!Ensure(length)) return false;
    *value = std::string_view(buffer_.data() + pos_, length);
    pos_ += length;
    return true;
  }

 private:
  // Makes `need` contiguous unread bytes available at pos_, sliding the
  // buffered window (and growing the buffer for oversized values).
  bool Ensure(size_t need) {
    if (avail_ - pos_ >= need) return true;
    const size_t remaining = avail_ - pos_;
    std::memmove(buffer_.data(), buffer_.data() + pos_, remaining);
    pos_ = 0;
    avail_ = remaining;
    if (need > buffer_.size()) buffer_.resize(need);
    const size_t left_in_run = handle_.bytes - file_pos_;
    size_t to_read = buffer_.size() - avail_;
    if (to_read > left_in_run) to_read = left_in_run;
    if (to_read > 0) {
      Status status =
          pool_->ReadAt(handle_, file_pos_, buffer_.data() + avail_, to_read);
      MUDS_CHECK_MSG(status.ok(), status.message().c_str());
      file_pos_ += to_read;
      avail_ += to_read;
    }
    return avail_ >= need;
  }

  const SpillPool* pool_;
  SpillHandle handle_;
  std::vector<char> buffer_;
  size_t pos_ = 0;       // Next unread byte within buffer_.
  size_t avail_ = 0;     // Valid bytes in buffer_.
  uint64_t file_pos_ = 0;  // Bytes of the run consumed into the buffer.
};

}  // namespace

std::vector<Ind> Spider::Discover(const Relation& relation,
                                  const SpillConfig& spill) {
  SpiderExternalOptions external;
  external.spill = spill;
  return DiscoverExternal(relation, external);
}

std::vector<Ind> Spider::DiscoverExternal(const Relation& relation,
                                          const SpiderExternalOptions& options) {
  // Registered before the spill check, so every engine's report lists it.
  Counter* const spill_fallbacks =
      MetricsRegistry::Global().GetCounter("spider.spill_fallbacks");
  if (!options.spill.enabled()) return Discover(relation);
  Result<std::unique_ptr<SpillPool>> created = SpillPool::Create(options.spill);
  if (!created.ok()) {
    spill_fallbacks->Increment();
    return Discover(relation);
  }
  std::unique_ptr<SpillPool> pool = std::move(created.value());
  const int n = relation.NumColumns();

  // Phase 1: write each column's sorted duplicate-free dictionary as one
  // length-prefixed run. Only one serialized run is in memory at a time.
  std::vector<SpillHandle> runs(static_cast<size_t>(n));
  int64_t run_bytes = 0;
  {
    MUDS_TRACE_SPAN("spiderExternalRuns");
    std::vector<char> buffer;
    for (int c = 0; c < n; ++c) {
      const auto& dict = relation.GetColumn(c).dictionary;
      size_t bytes = 0;
      for (const std::string& value : dict) {
        bytes += sizeof(uint32_t) + value.size();
      }
      if (bytes == 0) continue;  // Empty dictionary: no run, no cursor.
      buffer.resize(bytes);
      char* out = buffer.data();
      for (const std::string& value : dict) {
        const uint32_t length = static_cast<uint32_t>(value.size());
        std::memcpy(out, &length, sizeof(length));
        out += sizeof(length);
        std::memcpy(out, value.data(), value.size());
        out += value.size();
      }
      Result<SpillHandle> written = pool->Write(buffer.data(), bytes);
      if (!written.ok()) {
        spill_fallbacks->Increment();
        return Discover(relation);
      }
      runs[static_cast<size_t>(c)] = written.value();
      run_bytes += static_cast<int64_t>(bytes);
    }
  }
  metrics::Add("spider.external_run_bytes", run_bytes);

  // Phase 2: the same simultaneous merge as Discover, but each cursor
  // streams its run through a bounded buffer instead of walking a resident
  // dictionary.
  MUDS_TRACE_SPAN("spiderExternalMerge");
  int64_t cursor_advances = 0;
  int64_t value_groups = 0;
  std::vector<ColumnSet> candidates(static_cast<size_t>(n),
                                    ColumnSet::FirstN(n));
  std::vector<std::unique_ptr<RunReader>> readers(static_cast<size_t>(n));
  struct Cursor {
    std::string_view value;
    int column;
  };
  struct CursorGreater {
    bool operator()(const Cursor& a, const Cursor& b) const {
      return a.value != b.value ? a.value > b.value : a.column > b.column;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, CursorGreater> heap;
  for (int c = 0; c < n; ++c) {
    if (!runs[static_cast<size_t>(c)].valid()) continue;
    readers[static_cast<size_t>(c)] = std::make_unique<RunReader>(
        pool.get(), runs[static_cast<size_t>(c)], options.run_buffer_bytes);
    std::string_view value;
    if (readers[static_cast<size_t>(c)]->Next(&value)) {
      heap.push(Cursor{value, c});
    }
  }

  std::string group_value;  // Owned copy: advancing a reader slides the
                            // buffer the heap's views point into.
  while (!heap.empty()) {
    group_value.assign(heap.top().value);
    ++value_groups;
    ColumnSet group;
    while (!heap.empty() && heap.top().value == group_value) {
      group.Add(heap.top().column);
      heap.pop();
    }
    for (int c = group.First(); c >= 0; c = group.NextAtLeast(c + 1)) {
      candidates[static_cast<size_t>(c)] =
          candidates[static_cast<size_t>(c)].Intersect(group);
      ++cursor_advances;
      std::string_view value;
      if (readers[static_cast<size_t>(c)]->Next(&value)) {
        heap.push(Cursor{value, c});
      }
    }
  }
  metrics::Add("spider.cursor_advances", cursor_advances);
  metrics::Add("spider.value_groups", value_groups);

  std::vector<Ind> inds;
  for (int a = 0; a < n; ++a) {
    const ColumnSet& refs = candidates[static_cast<size_t>(a)];
    for (int b = refs.First(); b >= 0; b = refs.NextAtLeast(b + 1)) {
      if (b != a) inds.push_back(Ind{a, b});
    }
  }
  Canonicalize(&inds);
  return inds;
}

}  // namespace muds
