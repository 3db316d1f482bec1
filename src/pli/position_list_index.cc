#include "pli/position_list_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace muds {

namespace {

// Reusable per-thread scratch for the PLI kernels. Buffers grow to the
// high-water mark of the thread's workload and are then reused for every
// build/intersect/refinement — the kernels themselves perform no heap
// allocation beyond the exact-size buffers of a returned Pli. (§6.4 names
// the PLI intersect as the dominant profiling cost; on short relations the
// old nested-vector code spent most of that cost in the allocator.)
struct Arena {
  std::vector<int32_t> probe;       // Cluster id per row, -1 for singletons.
  std::vector<uint32_t> count;      // Per-target-cluster occurrence counts.
  std::vector<uint32_t> cursor;     // Per-target-cluster write positions.
  std::vector<int32_t> touched;     // Target ids hit by the current cluster.
  std::vector<RowId> scratch_rows;  // Compacted result rows.
  std::vector<uint32_t> scratch_offsets;
  std::vector<int32_t> expected;    // RefinesAll: code per (cluster, cand).
  std::vector<uint64_t> masks;      // Bitmap refine: seen-mask per cluster.
};

thread_local Arena t_arena;

constexpr uint32_t kSkip = std::numeric_limits<uint32_t>::max();

// The bitmap refine checks the accumulated seen-masks for violations every
// this many streamed rows — often enough that violated candidates exit
// early, rarely enough that the (SIMD) mask scan amortizes to noise.
constexpr RowId kMaskCheckStride = 8192;

// Refines dispatches to the bitmap mask kernel only above this row count:
// below it the candidate codes fit in cache and the gather walk is faster;
// above it the walk's out-of-order code loads miss to memory and the mask
// kernel's sequential stream wins (measured 2.6x at 1M rows, 4.5x at 4M).
constexpr RowId kBitmapRefineMinRows = 1 << 18;

}  // namespace

Pli::Pli(std::vector<RowId> rows, std::vector<uint32_t> offsets,
         RowId num_rows)
    : rows_(std::move(rows)), offsets_(std::move(offsets)),
      num_rows_(num_rows) {
  MUDS_DCHECK(!offsets_.empty() && offsets_.front() == 0 &&
              offsets_.back() == rows_.size());
}

Pli::Pli(const std::vector<Cluster>& clusters, RowId num_rows)
    : num_rows_(num_rows) {
  size_t total = 0;
  for (const Cluster& cluster : clusters) {
    MUDS_DCHECK(cluster.size() >= 2);
    total += cluster.size();
  }
  rows_.reserve(total);
  offsets_.reserve(clusters.size() + 1);
  offsets_.push_back(0);
  for (const Cluster& cluster : clusters) {
    rows_.insert(rows_.end(), cluster.begin(), cluster.end());
    offsets_.push_back(static_cast<uint32_t>(rows_.size()));
  }
  MaybeAttachSidecar(PliImpl::kAuto);
}

void Pli::MaybeAttachSidecar(PliImpl impl) {
  if (impl == PliImpl::kCsr) return;
  const int64_t num_clusters = NumClusters();
  if (num_clusters < 1 || num_clusters > kMaxSidecarClusters) return;
  if (impl == PliImpl::kAuto && num_rows_ < kAutoSidecarMinRows) return;
  cluster_of_row_.assign(static_cast<size_t>(num_rows_), kNoCluster);
  for (int64_t i = 0; i < num_clusters; ++i) {
    const uint16_t id = static_cast<uint16_t>(i);
    for (const RowId row : cluster(i)) {
      cluster_of_row_[static_cast<size_t>(row)] = id;
    }
  }
}

Pli Pli::FromColumn(const Column& column, RowId num_rows, PliImpl impl) {
  MUDS_CHECK(static_cast<RowId>(column.codes.size()) == num_rows);
  const size_t cardinality = column.dictionary.size();
  Arena& arena = t_arena;

  // Counting sort over the dictionary codes: count, size the result
  // exactly, then scatter. Clusters come out in code (i.e. value) order and
  // rows in ascending row order — the same layout the nested builder
  // produced.
  arena.count.assign(cardinality, 0);
  for (RowId row = 0; row < num_rows; ++row) {
    ++arena.count[static_cast<size_t>(column.codes[static_cast<size_t>(row)])];
  }
  size_t out_rows = 0;
  size_t out_clusters = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    if (arena.count[c] >= 2) {
      out_rows += arena.count[c];
      ++out_clusters;
    }
  }
  std::vector<RowId> rows(out_rows);
  std::vector<uint32_t> offsets;
  offsets.reserve(out_clusters + 1);
  offsets.push_back(0);
  if (arena.cursor.size() < cardinality) arena.cursor.resize(cardinality);
  uint32_t position = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    if (arena.count[c] >= 2) {
      arena.cursor[c] = position;
      position += arena.count[c];
      offsets.push_back(position);
    } else {
      arena.cursor[c] = kSkip;
    }
  }
  for (RowId row = 0; row < num_rows; ++row) {
    const size_t c =
        static_cast<size_t>(column.codes[static_cast<size_t>(row)]);
    if (arena.cursor[c] != kSkip) rows[arena.cursor[c]++] = row;
  }
  Pli pli(std::move(rows), std::move(offsets), num_rows);
  pli.MaybeAttachSidecar(impl);
  return pli;
}

Pli Pli::ForEmptySet(RowId num_rows, PliImpl impl) {
  std::vector<RowId> rows;
  std::vector<uint32_t> offsets = {0};
  if (num_rows >= 2) {
    rows.resize(static_cast<size_t>(num_rows));
    std::iota(rows.begin(), rows.end(), RowId{0});
    offsets.push_back(static_cast<uint32_t>(num_rows));
  }
  Pli pli(std::move(rows), std::move(offsets), num_rows);
  pli.MaybeAttachSidecar(impl);
  return pli;
}

Pli Pli::Intersect(const Pli& other) const {
  MUDS_CHECK(num_rows_ == other.num_rows_);
  // Probe with the PLI that has fewer clustered rows: rows outside its
  // clusters can never appear in an intersected cluster.
  const Pli& small =
      NumNonSingletonRows() <= other.NumNonSingletonRows() ? *this : other;
  const Pli& large = &small == this ? other : *this;

  // Pair-code counting sort when both sides carry a sidecar and the pair
  // domain is small relative to the input: it replaces the probe-table
  // fill, the per-cluster touch bookkeeping, and the hash-like scattered
  // counts with three sequential passes over dense arrays.
  if (small.HasBitmap() && large.HasBitmap()) {
    const int64_t pairs = small.NumClusters() * large.NumClusters();
    if (pairs > 0 &&
        (pairs <= 4096 || pairs <= 4 * static_cast<int64_t>(num_rows_))) {
      return small.IntersectPairCodes(large);
    }
  }

  Arena& arena = t_arena;
  large.FillProbeTable(&arena.probe);

  // Bucket compaction per small cluster: count the rows landing in each
  // probe cluster, assign contiguous ranges for the survivors (count >= 2),
  // scatter the rows, and reset the touched counters — all inside the
  // arena, with the compacted result laid out flat as it is produced.
  const size_t num_large = static_cast<size_t>(large.NumClusters());
  arena.count.assign(num_large, 0);
  if (arena.cursor.size() < num_large) arena.cursor.resize(num_large);
  const size_t max_rows = static_cast<size_t>(small.NumNonSingletonRows());
  if (arena.scratch_rows.size() < max_rows) arena.scratch_rows.resize(max_rows);
  arena.scratch_offsets.clear();
  arena.scratch_offsets.push_back(0);

  uint32_t out_position = 0;
  const int64_t num_small = small.NumClusters();
  for (int64_t i = 0; i < num_small; ++i) {
    const std::span<const RowId> cluster = small.cluster(i);
    arena.touched.clear();
    for (const RowId row : cluster) {
      const int32_t id = arena.probe[static_cast<size_t>(row)];
      if (id < 0) continue;
      if (arena.count[static_cast<size_t>(id)] == 0) arena.touched.push_back(id);
      ++arena.count[static_cast<size_t>(id)];
    }
    for (const int32_t id : arena.touched) {
      const uint32_t count = arena.count[static_cast<size_t>(id)];
      if (count >= 2) {
        arena.cursor[static_cast<size_t>(id)] = out_position;
        out_position += count;
        arena.scratch_offsets.push_back(out_position);
      } else {
        arena.cursor[static_cast<size_t>(id)] = kSkip;
      }
    }
    for (const RowId row : cluster) {
      const int32_t id = arena.probe[static_cast<size_t>(row)];
      if (id < 0) continue;
      uint32_t& cursor = arena.cursor[static_cast<size_t>(id)];
      if (cursor != kSkip) arena.scratch_rows[cursor++] = row;
    }
    for (const int32_t id : arena.touched) {
      arena.count[static_cast<size_t>(id)] = 0;
    }
  }

  // Exact-size result buffers: the one unavoidable allocation (the Pli owns
  // its memory) — a single sequential copy out of the arena.
  std::vector<RowId> rows(arena.scratch_rows.begin(),
                          arena.scratch_rows.begin() + out_position);
  std::vector<uint32_t> offsets(arena.scratch_offsets.begin(),
                                arena.scratch_offsets.end());
  Pli result(std::move(rows), std::move(offsets), num_rows_);
  if (HasBitmap() || other.HasBitmap()) {
    result.MaybeAttachSidecar(PliImpl::kBitmap);
  }
  return result;
}

Pli Pli::IntersectPairCodes(const Pli& other) const {
  // `this` is the side with fewer clustered rows; its CSR walk provides the
  // first pair component for free, the other side's sidecar is gathered for
  // the second. Both cluster counts are <= kMaxSidecarClusters, so the pair
  // domain fits a dense counting-sort table (<= 64K entries).
  Arena& arena = t_arena;
  const size_t k_other = static_cast<size_t>(other.NumClusters());
  const size_t pairs = static_cast<size_t>(NumClusters()) * k_other;
  const uint16_t* other_side = other.cluster_of_row_.data();

  arena.count.assign(pairs, 0);
  const int64_t num_small = NumClusters();
  for (int64_t i = 0; i < num_small; ++i) {
    const size_t base = static_cast<size_t>(i) * k_other;
    for (const RowId row : cluster(i)) {
      const uint16_t id = other_side[static_cast<size_t>(row)];
      if (id != kNoCluster) ++arena.count[base + id];
    }
  }

  if (arena.cursor.size() < pairs) arena.cursor.resize(pairs);
  const size_t max_rows = static_cast<size_t>(NumNonSingletonRows());
  if (arena.scratch_rows.size() < max_rows) arena.scratch_rows.resize(max_rows);
  arena.scratch_offsets.clear();
  arena.scratch_offsets.push_back(0);
  uint32_t out_position = 0;
  for (size_t p = 0; p < pairs; ++p) {
    if (arena.count[p] >= 2) {
      arena.cursor[p] = out_position;
      out_position += arena.count[p];
      arena.scratch_offsets.push_back(out_position);
    } else {
      arena.cursor[p] = kSkip;
    }
  }

  for (int64_t i = 0; i < num_small; ++i) {
    const size_t base = static_cast<size_t>(i) * k_other;
    for (const RowId row : cluster(i)) {
      const uint16_t id = other_side[static_cast<size_t>(row)];
      if (id == kNoCluster) continue;
      uint32_t& cursor = arena.cursor[base + id];
      if (cursor != kSkip) arena.scratch_rows[cursor++] = row;
    }
  }

  std::vector<RowId> rows(arena.scratch_rows.begin(),
                          arena.scratch_rows.begin() + out_position);
  std::vector<uint32_t> offsets(arena.scratch_offsets.begin(),
                                arena.scratch_offsets.end());
  Pli result(std::move(rows), std::move(offsets), num_rows_);
  result.MaybeAttachSidecar(PliImpl::kBitmap);
  return result;
}

bool Pli::Refines(const Column& column) const {
  // The mask kernel reads the candidate codes sequentially; the
  // per-cluster walk reads them in row order within each cluster, which is
  // effectively random across the column. Cache-resident columns favor the
  // (gathered) walk, larger ones are memory-bound and the sequential
  // stream wins by whole multiples — so dispatch on size, not SIMD level.
  if (HasBitmap() && num_rows_ >= kBitmapRefineMinRows &&
      static_cast<int64_t>(column.dictionary.size()) <= 256) {
    return RefinesBitmap(column);
  }
  const int64_t num_clusters = NumClusters();
  const int32_t* codes = column.codes.data();
  for (int64_t i = 0; i < num_clusters; ++i) {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    const size_t end = offsets_[static_cast<size_t>(i) + 1];
    const int32_t expected = codes[static_cast<size_t>(rows_[begin])];
    if (!simd::AllEqualGather(codes, rows_.data() + begin + 1,
                              end - begin - 1, expected)) {
      return false;
    }
  }
  return true;
}

bool Pli::RefinesBitmap(const Column& column) const {
  // Word-parallel refinement: one seen-mask per LHS cluster, one bit per
  // candidate code. A cluster with two distinct codes — two mask bits —
  // violates the FD. Domain <= 64 uses a single word per cluster, <= 256
  // a 4-word group; violations are detected by the (SIMD) multi-bit scans.
  const size_t k = static_cast<size_t>(NumClusters());
  const size_t card = column.dictionary.size();
  const int32_t* codes = column.codes.data();
  Arena& arena = t_arena;
  // Dense clusters: stream every row once through the sidecar (purely
  // sequential). Sparse clusters: walk only the clustered rows via CSR.
  const bool dense = 2 * NumNonSingletonRows() >= num_rows_;

  if (card <= 64) {
    if (dense) {
      arena.masks.assign(k, 0);
      const uint16_t* side = cluster_of_row_.data();
      const size_t n = static_cast<size_t>(num_rows_);
      size_t next_check = static_cast<size_t>(kMaskCheckStride);
      for (size_t row = 0; row < n; ++row) {
        const uint16_t id = side[row];
        if (id != kNoCluster) {
          arena.masks[id] |= uint64_t{1} << codes[row];
        }
        if (row >= next_check) {
          if (simd::AnyMultiBit(arena.masks.data(), k)) return false;
          next_check += static_cast<size_t>(kMaskCheckStride);
        }
      }
      return !simd::AnyMultiBit(arena.masks.data(), k);
    }
    for (size_t i = 0; i < k; ++i) {
      uint64_t mask = 0;
      const size_t begin = offsets_[i];
      const size_t end = offsets_[i + 1];
      for (size_t j = begin; j < end; ++j) {
        mask |= uint64_t{1} << codes[static_cast<size_t>(rows_[j])];
        if ((mask & (mask - 1)) != 0) return false;
      }
    }
    return true;
  }

  // 4-word masks (domain <= 256).
  if (dense) {
    arena.masks.assign(4 * k, 0);
    const uint16_t* side = cluster_of_row_.data();
    const size_t n = static_cast<size_t>(num_rows_);
    size_t next_check = static_cast<size_t>(kMaskCheckStride);
    for (size_t row = 0; row < n; ++row) {
      const uint16_t id = side[row];
      if (id != kNoCluster) {
        const uint32_t code = static_cast<uint32_t>(codes[row]);
        arena.masks[4 * static_cast<size_t>(id) + (code >> 6)] |=
            uint64_t{1} << (code & 63);
      }
      if (row >= next_check) {
        if (simd::AnyGroupMultiBit4(arena.masks.data(), k)) return false;
        next_check += static_cast<size_t>(kMaskCheckStride);
      }
    }
    return !simd::AnyGroupMultiBit4(arena.masks.data(), k);
  }
  for (size_t i = 0; i < k; ++i) {
    uint64_t mask[4] = {0, 0, 0, 0};
    const size_t begin = offsets_[i];
    const size_t end = offsets_[i + 1];
    for (size_t j = begin; j < end; ++j) {
      const uint32_t code =
          static_cast<uint32_t>(codes[static_cast<size_t>(rows_[j])]);
      mask[code >> 6] |= uint64_t{1} << (code & 63);
    }
    if (simd::AnyGroupMultiBit4(mask, 1)) return false;
  }
  return true;
}

void Pli::RefinesAll(std::span<const Column* const> columns,
                     std::vector<uint8_t>* valid) const {
  const size_t k = columns.size();
  valid->assign(k, 1);
  if (k == 0 || rows_.empty()) return;
  const size_t num_clusters = static_cast<size_t>(NumClusters());
  // The streaming scan pays one probe-table fill plus an expected-code
  // matrix of num_clusters * k entries. For a single candidate — or a
  // matrix too large to be worth materializing — the per-cluster walk wins.
  if (k == 1 || num_clusters * k > (1u << 22)) {
    for (size_t j = 0; j < k; ++j) {
      (*valid)[j] = Refines(*columns[j]) ? 1 : 0;
    }
    return;
  }

  Arena& arena = t_arena;
  arena.expected.assign(num_clusters * k, -1);
  size_t alive = k;
  if (HasBitmap()) {
    // The sidecar already is the probe table (uint16 instead of int32) —
    // the fill pass disappears entirely.
    const uint16_t* side = cluster_of_row_.data();
    for (RowId row = 0; row < num_rows_; ++row) {
      const uint16_t id = side[static_cast<size_t>(row)];
      if (id == kNoCluster) continue;
      int32_t* expected = arena.expected.data() + static_cast<size_t>(id) * k;
      for (size_t j = 0; j < k; ++j) {
        if (!(*valid)[j]) continue;
        const int32_t code = columns[j]->codes[static_cast<size_t>(row)];
        if (expected[j] < 0) {
          expected[j] = code;
        } else if (expected[j] != code) {
          (*valid)[j] = 0;
          if (--alive == 0) return;
        }
      }
    }
    return;
  }
  FillProbeTable(&arena.probe);
  for (RowId row = 0; row < num_rows_; ++row) {
    const int32_t id = arena.probe[static_cast<size_t>(row)];
    if (id < 0) continue;
    int32_t* expected = arena.expected.data() + static_cast<size_t>(id) * k;
    for (size_t j = 0; j < k; ++j) {
      if (!(*valid)[j]) continue;
      const int32_t code =
          columns[j]->codes[static_cast<size_t>(row)];
      if (expected[j] < 0) {
        expected[j] = code;
      } else if (expected[j] != code) {
        (*valid)[j] = 0;
        if (--alive == 0) return;
      }
    }
  }
}

void Pli::FillProbeTable(std::vector<int32_t>* probe) const {
  const size_t n = static_cast<size_t>(num_rows_);
  if (probe->size() != n) probe->resize(n);
  if (HasBitmap()) {
    // Sequential widening pass — no fill + scatter round trip.
    const uint16_t* side = cluster_of_row_.data();
    int32_t* out = probe->data();
    for (size_t row = 0; row < n; ++row) {
      const uint16_t id = side[row];
      out[row] = id == kNoCluster ? -1 : static_cast<int32_t>(id);
    }
    return;
  }
  simd::FillI32(probe->data(), n, -1);
  const int64_t num_clusters = NumClusters();
  for (int64_t i = 0; i < num_clusters; ++i) {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    const size_t end = offsets_[static_cast<size_t>(i) + 1];
    for (size_t j = begin; j < end; ++j) {
      (*probe)[static_cast<size_t>(rows_[j])] = static_cast<int32_t>(i);
    }
  }
}

namespace {

// Serialized layout: a 4-field header followed by the three arrays verbatim.
// Counts are element counts, not bytes.
struct SerializedPliHeader {
  uint64_t rows_count;
  uint64_t offsets_count;
  uint64_t sidecar_count;  // 0 when no bitmap sidecar is attached.
  uint64_t num_rows;
};

template <typename T>
char* AppendArray(char* out, const std::vector<T>& values) {
  const size_t bytes = values.size() * sizeof(T);
  if (bytes > 0) std::memcpy(out, values.data(), bytes);
  return out + bytes;
}

template <typename T>
const char* ConsumeArray(const char* in, uint64_t count, std::vector<T>* out) {
  out->resize(static_cast<size_t>(count));
  const size_t bytes = static_cast<size_t>(count) * sizeof(T);
  if (bytes > 0) std::memcpy(out->data(), in, bytes);
  return in + bytes;
}

}  // namespace

size_t Pli::SerializedBytes() const {
  return sizeof(SerializedPliHeader) + rows_.size() * sizeof(RowId) +
         offsets_.size() * sizeof(uint32_t) +
         cluster_of_row_.size() * sizeof(uint16_t);
}

void Pli::SerializeTo(char* out) const {
  SerializedPliHeader header;
  header.rows_count = rows_.size();
  header.offsets_count = offsets_.size();
  header.sidecar_count = cluster_of_row_.size();
  header.num_rows = static_cast<uint64_t>(num_rows_);
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  out = AppendArray(out, rows_);
  out = AppendArray(out, offsets_);
  AppendArray(out, cluster_of_row_);
}

Result<Pli> Pli::Deserialize(const char* data, size_t bytes) {
  if (bytes < sizeof(SerializedPliHeader)) {
    return Status::ParseError("pli: serialized buffer shorter than header");
  }
  SerializedPliHeader header;
  std::memcpy(&header, data, sizeof(header));
  const uint64_t payload = header.rows_count * sizeof(RowId) +
                           header.offsets_count * sizeof(uint32_t) +
                           header.sidecar_count * sizeof(uint16_t);
  if (bytes != sizeof(header) + payload) {
    return Status::ParseError("pli: serialized buffer size mismatch");
  }
  if (header.offsets_count == 0) {
    return Status::ParseError("pli: serialized form missing offsets");
  }
  if (header.sidecar_count != 0 && header.sidecar_count != header.num_rows) {
    return Status::ParseError("pli: sidecar size does not match row count");
  }
  std::vector<RowId> rows;
  std::vector<uint32_t> offsets;
  std::vector<uint16_t> sidecar;
  const char* in = data + sizeof(header);
  in = ConsumeArray(in, header.rows_count, &rows);
  in = ConsumeArray(in, header.offsets_count, &offsets);
  ConsumeArray(in, header.sidecar_count, &sidecar);
  if (offsets.front() != 0 || offsets.back() != rows.size()) {
    return Status::ParseError("pli: inconsistent cluster offsets");
  }
  Pli pli(std::move(rows), std::move(offsets),
          static_cast<RowId>(header.num_rows));
  pli.cluster_of_row_ = std::move(sidecar);
  return pli;
}

}  // namespace muds
