#include "data/preprocess.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "data/projection_probe.h"

namespace muds {

namespace {

// Rows per chunk of the row-parallel steps (keys, scatter, compaction).
// Fixed, so every intermediate array is the same at every thread count.
constexpr int64_t kChunkRows = int64_t{1} << 16;

// The scatter aims at partitions of about this many rows, so a partition's
// probe table (two slots per row) stays cache-resident.
constexpr int64_t kPartitionRows = int64_t{1} << 13;
constexpr int kMaxPartitionBits = 10;

}  // namespace

std::vector<RowId> DistinctRowIds(const Relation& relation,
                                  ThreadPool* pool) {
  const int64_t n = relation.NumRows();
  const int64_t num_chunks = (n + kChunkRows - 1) / kChunkRows;
  const auto chunk_end = [n](int64_t chunk) {
    return std::min(n, (chunk + 1) * kChunkRows);
  };

  // Step 1: a 64-bit key per row, one RowKeys fill per chunk. Exact keys
  // are the packed rows; hashed keys are confirmed on the codes below.
  const RowKeys row_keys(relation, ColumnSet::FirstN(relation.NumColumns()));
  std::unique_ptr<uint64_t[]> keys(new uint64_t[static_cast<size_t>(n)]);
  ParallelForOrInline(pool, num_chunks, [&](int64_t chunk) {
    row_keys.Fill(static_cast<RowId>(chunk * kChunkRows),
                  static_cast<RowId>(chunk_end(chunk)),
                  keys.get() + chunk * kChunkRows);
  });

  // Step 2: stable radix scatter of (row, key) by the key's top bits.
  // Partition p takes chunk 0's rows first, then chunk 1's, ..., so every
  // partition lists its rows in ascending order.
  int partition_bits = 0;
  while (partition_bits < kMaxPartitionBits &&
         (kPartitionRows << partition_bits) < n) {
    ++partition_bits;
  }
  const int64_t num_partitions = int64_t{1} << partition_bits;
  const auto partition_of = [partition_bits](uint64_t key) {
    return partition_bits == 0
               ? int64_t{0}
               : static_cast<int64_t>(key >> (64 - partition_bits));
  };
  // cursor[chunk * num_partitions + p]: where the chunk's next row of
  // partition p goes (a count until the prefix sum below).
  std::vector<int64_t> cursor(
      static_cast<size_t>(num_chunks * num_partitions), 0);
  ParallelForOrInline(pool, num_chunks, [&](int64_t chunk) {
    int64_t* const count = cursor.data() + chunk * num_partitions;
    for (int64_t r = chunk * kChunkRows; r < chunk_end(chunk); ++r) {
      ++count[partition_of(keys[static_cast<size_t>(r)])];
    }
  });
  std::vector<int64_t> partition_begin(
      static_cast<size_t>(num_partitions) + 1);
  int64_t running = 0;
  for (int64_t p = 0; p < num_partitions; ++p) {
    partition_begin[static_cast<size_t>(p)] = running;
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      int64_t& slot = cursor[static_cast<size_t>(chunk * num_partitions + p)];
      const int64_t count = slot;
      slot = running;
      running += count;
    }
  }
  partition_begin[static_cast<size_t>(num_partitions)] = running;
  std::unique_ptr<RowId[]> part_rows(new RowId[static_cast<size_t>(n)]);
  std::unique_ptr<uint64_t[]> part_keys(new uint64_t[static_cast<size_t>(n)]);
  ParallelForOrInline(pool, num_chunks, [&](int64_t chunk) {
    int64_t* const next = cursor.data() + chunk * num_partitions;
    for (int64_t r = chunk * kChunkRows; r < chunk_end(chunk); ++r) {
      const uint64_t key = keys[static_cast<size_t>(r)];
      const size_t pos = static_cast<size_t>(next[partition_of(key)]++);
      part_rows[pos] = static_cast<RowId>(r);
      part_keys[pos] = key;
    }
  });
  keys.reset();

  // Step 3: per partition, an open-addressing table of partition-local
  // indices. Rows arrive in ascending order, so the one that claims a slot
  // is its row's first occurrence. Every row belongs to one partition, so
  // the flag writes never collide.
  std::unique_ptr<uint8_t[]> is_first(new uint8_t[static_cast<size_t>(n)]);
  ParallelForOrInline(pool, num_partitions, [&](int64_t p) {
    const int64_t begin = partition_begin[static_cast<size_t>(p)];
    const int64_t size = partition_begin[static_cast<size_t>(p) + 1] - begin;
    const RowId* const rows = part_rows.get() + begin;
    const uint64_t* const part = part_keys.get() + begin;
    const size_t capacity =
        std::bit_ceil(static_cast<size_t>(2 * size) | size_t{16});
    const size_t mask = capacity - 1;
    std::vector<int32_t> table(capacity, -1);
    for (int32_t i = 0; i < size; ++i) {
      size_t slot = static_cast<size_t>(part[i]) & mask;
      for (;;) {
        const int32_t j = table[slot];
        if (j < 0) {
          table[slot] = i;
          is_first[static_cast<size_t>(rows[i])] = 1;
          break;
        }
        if (part[j] == part[i] &&
            (row_keys.exact() || row_keys.SameProjection(rows[j], rows[i]))) {
          is_first[static_cast<size_t>(rows[i])] = 0;
          break;
        }
        slot = (slot + 1) & mask;
      }
    }
  });
  part_rows.reset();
  part_keys.reset();

  // Step 4: compact the first occurrences in row order.
  std::vector<int64_t> kept_before(static_cast<size_t>(num_chunks) + 1, 0);
  ParallelForOrInline(pool, num_chunks, [&](int64_t chunk) {
    kept_before[static_cast<size_t>(chunk) + 1] = std::count(
        is_first.get() + chunk * kChunkRows, is_first.get() + chunk_end(chunk),
        uint8_t{1});
  });
  for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
    kept_before[static_cast<size_t>(chunk) + 1] +=
        kept_before[static_cast<size_t>(chunk)];
  }
  std::vector<RowId> distinct(
      static_cast<size_t>(kept_before[static_cast<size_t>(num_chunks)]));
  ParallelForOrInline(pool, num_chunks, [&](int64_t chunk) {
    RowId* out = distinct.data() + kept_before[static_cast<size_t>(chunk)];
    for (int64_t r = chunk * kChunkRows; r < chunk_end(chunk); ++r) {
      if (is_first[static_cast<size_t>(r)]) *out++ = static_cast<RowId>(r);
    }
  });

  metrics::Add("dedup.rows", n);
  metrics::Add("dedup.duplicates_removed",
               n - static_cast<int64_t>(distinct.size()));
  return distinct;
}

DeduplicateResult DeduplicateRows(const Relation& relation,
                                  ThreadPool* pool) {
  const std::vector<RowId> distinct = DistinctRowIds(relation, pool);
  const int64_t removed = static_cast<int64_t>(relation.NumRows()) -
                          static_cast<int64_t>(distinct.size());
  if (removed == 0) {
    // Avoid rebuilding dictionaries when nothing changed.
    return DeduplicateResult{relation, 0};
  }
  return DeduplicateResult{relation.SelectRows(distinct, pool), removed};
}

}  // namespace muds
