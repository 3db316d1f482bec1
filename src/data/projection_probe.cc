#include "data/projection_probe.h"

#include <algorithm>
#include <bit>

namespace muds {

namespace {

// SplitMix64 finalizer. A bijection, so mixing a packed row loses nothing:
// equal mixed keys still mean equal rows.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// ProbeFdViolations keys this many rows at a time, so an early exit wastes
// at most one block of key work.
constexpr RowId kBlockRows = 256;
// Initial probe-table capacity (a power of two).
constexpr size_t kInitialSlots = 64;

}  // namespace

RowKeys::RowKeys(const Relation& relation, const ColumnSet& columns) {
  int total_bits = 0;
  for (int c = columns.First(); c >= 0; c = columns.NextAtLeast(c + 1)) {
    const int64_t card = relation.Cardinality(c);
    if (card <= 1) continue;
    codes_.push_back(relation.GetColumn(c).codes.data());
    shift_.push_back(total_bits);
    total_bits += std::bit_width(static_cast<uint64_t>(card - 1));
  }
  exact_ = total_bits <= 64;
}

void RowKeys::Fill(RowId begin, RowId end, uint64_t* keys) const {
  uint64_t* const keys_end = keys + (end - begin);
  std::fill(keys, keys_end, 0);
  for (size_t i = 0; i < codes_.size(); ++i) {
    const int32_t* code = codes_[i] + begin;
    if (exact_) {
      const int s = shift_[i];
      for (uint64_t* key = keys; key < keys_end; ++key, ++code) {
        *key |= static_cast<uint64_t>(static_cast<uint32_t>(*code)) << s;
      }
    } else {
      for (uint64_t* key = keys; key < keys_end; ++key, ++code) {
        *key = (std::rotl(*key, 27) ^ static_cast<uint32_t>(*code)) *
               0x9E3779B97F4A7C15ull;
      }
    }
  }
  for (uint64_t* key = keys; key < keys_end; ++key) *key = Mix(*key);
}

bool CardinalityBoundRefutesUcc(const Relation& relation,
                                const ColumnSet& columns) {
  const int64_t rows = relation.NumRows();
  // Stops as soon as the product reaches the row count, so it never
  // exceeds rows * max cardinality < 2^62.
  int64_t product = 1;
  for (int c = columns.First(); c >= 0 && product < rows;
       c = columns.NextAtLeast(c + 1)) {
    product *= relation.Cardinality(c);
  }
  return product < rows;
}

ColumnSet ProbeFdViolations(const Relation& relation, const ColumnSet& lhs,
                            const ColumnSet& candidates,
                            std::vector<std::pair<RowId, RowId>>* witnesses) {
  ColumnSet refuted;
  std::vector<int> open = candidates.ToIndices();
  const RowId n = relation.NumRows();
  if (open.empty() || n < 2) return refuted;
  const RowId limit =
      std::min(n, std::max(kProbeMinRows, n / kProbeRowDivisor));
  const RowKeys row_keys(relation, lhs);

  // Open-addressing table from key to the first row holding it, kept at
  // most half full.
  std::vector<uint64_t> slot_key(kInitialSlots);
  std::vector<RowId> slot_row(kInitialSlots, -1);
  size_t used = 0;
  const auto grow = [&] {
    std::vector<uint64_t> old_key = std::move(slot_key);
    std::vector<RowId> old_row = std::move(slot_row);
    slot_key.assign(2 * old_key.size(), 0);
    slot_row.assign(2 * old_row.size(), -1);
    const size_t mask = slot_row.size() - 1;
    for (size_t i = 0; i < old_row.size(); ++i) {
      if (old_row[i] < 0) continue;
      size_t slot = static_cast<size_t>(old_key[i]) & mask;
      while (slot_row[slot] >= 0) slot = (slot + 1) & mask;
      slot_key[slot] = old_key[i];
      slot_row[slot] = old_row[i];
    }
  };

  uint64_t keys[kBlockRows];
  for (RowId begin = 0; begin < limit && !open.empty(); begin += kBlockRows) {
    const RowId end = std::min(limit, begin + kBlockRows);
    row_keys.Fill(begin, end, keys);
    for (RowId row = begin; row < end && !open.empty(); ++row) {
      const uint64_t key = keys[row - begin];
      const size_t mask = slot_row.size() - 1;
      size_t slot = static_cast<size_t>(key) & mask;
      RowId first = -1;
      for (RowId r; (r = slot_row[slot]) >= 0; slot = (slot + 1) & mask) {
        if (slot_key[slot] == key &&
            (row_keys.exact() || row_keys.SameProjection(r, row))) {
          first = r;
          break;
        }
      }
      if (first < 0) {
        slot_key[slot] = key;
        slot_row[slot] = row;
        if (2 * ++used > slot_row.size()) grow();
        continue;
      }
      // `first` and `row` agree on lhs: every open candidate they differ
      // on is refuted.
      bool refutes = false;
      for (size_t i = 0; i < open.size();) {
        const int a = open[i];
        if (relation.Code(first, a) != relation.Code(row, a)) {
          refuted.Add(a);
          open[i] = open.back();
          open.pop_back();
          refutes = true;
        } else {
          ++i;
        }
      }
      if (refutes && witnesses != nullptr) witnesses->emplace_back(first, row);
    }
  }
  return refuted;
}

}  // namespace muds
