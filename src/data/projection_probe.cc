#include "data/projection_probe.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.h"

namespace muds {

namespace {

// SplitMix64 finalizer. A bijection, so mixing a rank loses nothing:
// equal mixed keys still mean equal rows.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

using Product = unsigned __int128;

// One past the largest product whose ranks fit a 64-bit key.
constexpr Product kPastExact = (Product{1} << 64) + 1;

// Π of the cardinalities of the non-constant columns of `columns`,
// saturated at kPastExact. Cardinalities are below 2^31, so the product
// never overflows before it saturates.
Product CardinalityProduct(const Relation& relation,
                           const ColumnSet& columns) {
  Product product = 1;
  for (int c = columns.First(); c >= 0 && product < kPastExact;
       c = columns.NextAtLeast(c + 1)) {
    const int64_t card = relation.Cardinality(c);
    if (card > 1) {
      product = std::min(product * static_cast<uint64_t>(card), kPastExact);
    }
  }
  return product;
}

// ProbeFdViolations keys this many rows at a time, so an early exit wastes
// at most one block of key work.
constexpr RowId kBlockRows = 256;
// Initial probe-table capacity (a power of two).
constexpr size_t kInitialSlots = 64;

}  // namespace

RowKeys::RowKeys(const Relation& relation, const ColumnSet& columns) {
  // Wraps once Π reaches 2^64, but only after the last weight an exact key
  // uses.
  uint64_t weight = 1;
  for (int c = columns.First(); c >= 0; c = columns.NextAtLeast(c + 1)) {
    const int64_t card = relation.Cardinality(c);
    if (card <= 1) continue;
    codes_.push_back(relation.GetColumn(c).codes.data());
    weight_.push_back(weight);
    weight *= static_cast<uint64_t>(card);
  }
  const Product product = CardinalityProduct(relation, columns);
  exact_ = product < kPastExact;
  max_rank_ = static_cast<uint64_t>(product - 1);
}

template <typename Rank>
void RowKeys::FillRanksAs(RowId begin, RowId end, Rank* ranks) const {
  Rank* const ranks_end = ranks + (end - begin);
  if (codes_.empty()) {
    std::fill(ranks, ranks_end, Rank{0});
    return;
  }
  // The first column's weight is 1.
  const int32_t* code = codes_[0] + begin;
  for (Rank* rank = ranks; rank < ranks_end; ++rank, ++code) {
    *rank = static_cast<uint32_t>(*code);
  }
  for (size_t i = 1; i < codes_.size(); ++i) {
    const Rank weight = static_cast<Rank>(weight_[i]);
    code = codes_[i] + begin;
    for (Rank* rank = ranks; rank < ranks_end; ++rank, ++code) {
      *rank += static_cast<Rank>(static_cast<uint32_t>(*code)) * weight;
    }
  }
}

void RowKeys::Fill(RowId begin, RowId end, uint64_t* keys) const {
  uint64_t* const keys_end = keys + (end - begin);
  if (exact_) {
    FillRanksAs(begin, end, keys);
  } else {
    std::fill(keys, keys_end, 0);
    for (const int32_t* column : codes_) {
      const int32_t* code = column + begin;
      for (uint64_t* key = keys; key < keys_end; ++key, ++code) {
        *key = (std::rotl(*key, 27) ^ static_cast<uint32_t>(*code)) *
               0x9E3779B97F4A7C15ull;
      }
    }
  }
  for (uint64_t* key = keys; key < keys_end; ++key) *key = Mix(*key);
}

void RowKeys::FillRanks(RowId begin, RowId end, uint32_t* ranks) const {
  MUDS_DCHECK(exact_ && max_rank_ <= UINT32_MAX);
  FillRanksAs(begin, end, ranks);
}

bool CardinalityBoundRefutesUcc(const Relation& relation,
                                const ColumnSet& columns) {
  return CardinalityProduct(relation, columns) <
         static_cast<uint64_t>(relation.NumRows());
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
