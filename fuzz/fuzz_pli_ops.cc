// Fuzzer for the flat CSR PLI kernels.
//
// The input bytes choose two column cardinalities, a candidate count, and
// the code streams of a small relation. Every kernel — FromColumn,
// Intersect, Refines, RefinesAll, ForEmptySet — is checked against a naive
// map-based partition oracle computed straight from the codes, and the
// bitmap-sidecar implementation (plus the runtime-scalar SIMD variant of
// both) is cross-checked against the scalar CSR answers. The refutations
// that run before any PLI work (the cardinality bound and the row probe
// of data/projection_probe.h) are checked against IsUnique and Refines.

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "data/projection_probe.h"
#include "data/relation.h"
#include "fuzz_util.h"
#include "pli/position_list_index.h"

namespace {

using namespace muds;

// Stripped partition of `keys` (cluster per distinct key, size >= 2 only),
// as a canonical sorted cluster list.
std::vector<std::vector<RowId>> OraclePartition(
    const std::vector<std::pair<int32_t, int32_t>>& keys) {
  std::map<std::pair<int32_t, int32_t>, std::vector<RowId>> groups;
  for (size_t row = 0; row < keys.size(); ++row) {
    groups[keys[row]].push_back(static_cast<RowId>(row));
  }
  std::vector<std::vector<RowId>> clusters;
  for (auto& [key, rows] : groups) {
    if (rows.size() >= 2) clusters.push_back(std::move(rows));
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

std::vector<std::vector<RowId>> Materialize(const Pli& pli) {
  std::vector<std::vector<RowId>> clusters;
  for (int64_t i = 0; i < pli.NumClusters(); ++i) {
    std::span<const RowId> cluster = pli.cluster(i);
    clusters.emplace_back(cluster.begin(), cluster.end());
    std::sort(clusters.back().begin(), clusters.back().end());
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

bool OracleRefines(const std::vector<int32_t>& lhs_codes,
                   const std::vector<int32_t>& rhs_codes) {
  std::map<int32_t, int32_t> rhs_of;
  for (size_t row = 0; row < lhs_codes.size(); ++row) {
    auto [it, inserted] = rhs_of.emplace(lhs_codes[row], rhs_codes[row]);
    if (!inserted && it->second != rhs_codes[row]) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 4) return 0;
  const int32_t card_a = 1 + data[0] % 16;
  const int32_t card_b = 1 + data[1] % 16;
  const int num_candidates = 1 + data[2] % 4;
  data += 3;
  size -= 3;

  const RowId rows = static_cast<RowId>(std::min<size_t>(size / 2, 512));
  if (rows == 0) return 0;

  std::vector<int32_t> codes_a, codes_b;
  for (RowId r = 0; r < rows; ++r) {
    codes_a.push_back(static_cast<int32_t>(data[2 * r] % card_a));
    codes_b.push_back(static_cast<int32_t>(data[2 * r + 1] % card_b));
  }

  // Candidate columns for RefinesAll: mixes of the two base columns.
  std::vector<std::vector<int32_t>> candidates;
  for (int k = 0; k < num_candidates; ++k) {
    std::vector<int32_t> codes;
    for (RowId r = 0; r < rows; ++r) {
      const int32_t mixed =
          (codes_a[static_cast<size_t>(r)] * (k + 1) +
           codes_b[static_cast<size_t>(r)] * (k ^ 3)) %
          (2 + k);
      codes.push_back(mixed);
    }
    candidates.push_back(std::move(codes));
  }

  // Build the relation through the public surface so dictionaries and codes
  // stay consistent with what the engines see.
  std::vector<std::string> names = {"a", "b"};
  for (int k = 0; k < num_candidates; ++k) {
    names.push_back("m" + std::to_string(k));
  }
  std::vector<std::vector<std::string>> string_rows;
  for (RowId r = 0; r < rows; ++r) {
    std::vector<std::string> row = {
        "a" + std::to_string(codes_a[static_cast<size_t>(r)]),
        "b" + std::to_string(codes_b[static_cast<size_t>(r)])};
    for (int k = 0; k < num_candidates; ++k) {
      row.push_back(
          "m" +
          std::to_string(
              candidates[static_cast<size_t>(k)][static_cast<size_t>(r)]));
    }
    string_rows.push_back(std::move(row));
  }
  const Relation relation = Relation::FromRows(names, string_rows, "fuzz");

  // Re-read the dictionary codes: value strings sort differently than the
  // raw numeric codes, so the oracle must use the relation's own encoding.
  const auto column_codes = [&](int column) {
    const CodeVector& codes = relation.GetColumn(column).codes;
    return std::vector<int32_t>(codes.begin(), codes.end());
  };

  const Pli pli_a = Pli::FromColumn(relation.GetColumn(0), rows);
  const Pli pli_b = Pli::FromColumn(relation.GetColumn(1), rows);

  // FromColumn vs the single-column oracle partition.
  {
    std::vector<std::pair<int32_t, int32_t>> keys;
    for (RowId r = 0; r < rows; ++r) {
      keys.emplace_back(column_codes(0)[static_cast<size_t>(r)], 0);
    }
    FUZZ_ASSERT(Materialize(pli_a) == OraclePartition(keys));
  }

  // Intersect vs the pair-key oracle partition, both ways (commutativity).
  std::vector<std::pair<int32_t, int32_t>> pair_keys;
  for (RowId r = 0; r < rows; ++r) {
    pair_keys.emplace_back(column_codes(0)[static_cast<size_t>(r)],
                           column_codes(1)[static_cast<size_t>(r)]);
  }
  const std::vector<std::vector<RowId>> expected = OraclePartition(pair_keys);
  const Pli intersected = pli_a.Intersect(pli_b);
  FUZZ_ASSERT(Materialize(intersected) == expected);
  FUZZ_ASSERT(Materialize(pli_b.Intersect(pli_a)) == expected);

  // CSR invariants of the intersect result.
  FUZZ_ASSERT(intersected.offsets().size() ==
              static_cast<size_t>(intersected.NumClusters()) + 1);
  FUZZ_ASSERT(intersected.NumNonSingletonRows() ==
              static_cast<int64_t>(intersected.rows().size()));
  FUZZ_ASSERT(intersected.IsUnique() == expected.empty());

  // ForEmptySet is the intersect identity.
  const Pli empty_set = Pli::ForEmptySet(rows);
  FUZZ_ASSERT(Materialize(empty_set.Intersect(pli_a)) == Materialize(pli_a));

  // Refines vs the map oracle, for every candidate column.
  for (int k = 0; k < num_candidates; ++k) {
    const int column = 2 + k;
    FUZZ_ASSERT(pli_a.Refines(relation.GetColumn(column)) ==
                OracleRefines(column_codes(0), column_codes(column)));
  }

  // RefinesAll must agree with per-candidate Refines.
  std::vector<const Column*> candidate_columns;
  for (int k = 0; k < num_candidates; ++k) {
    candidate_columns.push_back(&relation.GetColumn(2 + k));
  }
  std::vector<uint8_t> valid;
  intersected.RefinesAll(candidate_columns, &valid);
  FUZZ_ASSERT(valid.size() == candidate_columns.size());
  for (size_t k = 0; k < candidate_columns.size(); ++k) {
    FUZZ_ASSERT((valid[k] != 0) ==
                intersected.Refines(*candidate_columns[k]));
  }

  // Refute before intersecting: a cardinality-bound refutation needs a
  // non-unique PLI, and every row-probe refutation a failing Refines and a
  // witness pair that agrees on the lhs. Within the scan cap the probe sees
  // every row, so there it must match Refines exactly.
  const std::pair<ColumnSet, const Pli*> lhs_plis[] = {
      {ColumnSet(), &empty_set},
      {ColumnSet::Single(0), &pli_a},
      {ColumnSet::Single(1), &pli_b},
      {ColumnSet::FromIndices({0, 1}), &intersected}};
  const ColumnSet all_columns = ColumnSet::FirstN(relation.NumColumns());
  for (const auto& [lhs, pli] : lhs_plis) {
    if (CardinalityBoundRefutesUcc(relation, lhs)) {
      FUZZ_ASSERT(!pli->IsUnique());
    }
    const ColumnSet probed = all_columns.Difference(lhs);
    std::vector<std::pair<RowId, RowId>> witnesses;
    const ColumnSet refuted =
        ProbeFdViolations(relation, lhs, probed, &witnesses);
    for (const auto& [first, second] : witnesses) {
      for (int c = lhs.First(); c >= 0; c = lhs.NextAtLeast(c + 1)) {
        FUZZ_ASSERT(relation.Code(first, c) == relation.Code(second, c));
      }
    }
    for (int c = probed.First(); c >= 0; c = probed.NextAtLeast(c + 1)) {
      const bool holds = pli->Refines(relation.GetColumn(c));
      if (refuted.Contains(c)) FUZZ_ASSERT(!holds);
      if (rows <= kProbeMinRows) FUZZ_ASSERT(refuted.Contains(c) == !holds);
    }
  }

  // Implementation axis: pinned-bitmap and forced-scalar variants must
  // reproduce the scalar CSR results bit for bit (partitions canonically).
  for (const PliImpl impl : {PliImpl::kCsr, PliImpl::kBitmap}) {
    for (const bool scalar : {false, true}) {
      if (scalar) simd::ForceScalar(true);
      const Pli va = Pli::FromColumn(relation.GetColumn(0), rows, impl);
      const Pli vb = Pli::FromColumn(relation.GetColumn(1), rows, impl);
      FUZZ_ASSERT(Materialize(va) == Materialize(pli_a));
      const Pli vab = va.Intersect(vb);
      FUZZ_ASSERT(Materialize(vab) == expected);
      FUZZ_ASSERT(vab.NumNonSingletonRows() ==
                  intersected.NumNonSingletonRows());
      std::vector<uint8_t> variant_valid;
      vab.RefinesAll(candidate_columns, &variant_valid);
      FUZZ_ASSERT(variant_valid == valid);
      for (int k = 0; k < num_candidates; ++k) {
        const Column& column = relation.GetColumn(2 + k);
        FUZZ_ASSERT(va.Refines(column) == pli_a.Refines(column));
      }
      if (scalar) simd::ForceScalar(false);
    }
  }
  return 0;
}
