// Equivalence of the PLI implementation variants: the bitmap sidecar
// (PliImpl::kBitmap) and the SIMD kernels (native vs the runtime scalar
// kill switch) must agree with the scalar CSR oracle on every observable —
// canonical partitions, Refines/RefinesAll answers, and the summary
// counts — including on adversarial shapes: no clusters at all, one
// all-equal cluster, NULL-heavy columns, and domains straddling the
// single-word (64) and 4-word (256) mask thresholds.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "test_util.h"

namespace muds {
namespace {

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : on_(on) {
    if (on_) simd::ForceScalar(true);
  }
  ~ScopedForceScalar() {
    if (on_) simd::ForceScalar(false);
  }

 private:
  bool on_;
};

// Canonical view of a stripped partition: clusters as sorted row lists,
// ordered by smallest row. Intersect's pair-code kernel may emit clusters
// in a different order than the probe-table kernel; the partition itself
// must be identical.
std::vector<std::vector<RowId>> CanonicalPartition(const Pli& pli) {
  std::vector<std::vector<RowId>> clusters;
  for (int64_t i = 0; i < pli.NumClusters(); ++i) {
    const auto span = pli.cluster(i);
    std::vector<RowId> rows(span.begin(), span.end());
    std::sort(rows.begin(), rows.end());
    clusters.push_back(std::move(rows));
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

// A single-column relation whose column cycles through `card` values —
// every value repeats when rows > card, so NumClusters() == card.
Relation CyclicRelation(int64_t rows, int64_t card) {
  std::vector<std::vector<std::string>> data;
  for (int64_t r = 0; r < rows; ++r) {
    data.push_back({"v" + std::to_string(r % card)});
  }
  return Relation::FromRows({"A"}, data, "cyclic");
}

// Column determined by relation column 0 (code mod `card`): every
// cluster-consistent candidate, so Refines must answer true.
Column DeterminedColumn(const Relation& r, int64_t card) {
  Column out;
  for (int64_t v = 0; v < card; ++v) {
    out.dictionary.push_back("d" + std::to_string(v));
  }
  for (RowId row = 0; row < r.NumRows(); ++row) {
    out.codes.push_back(r.Code(row, 0) % static_cast<int32_t>(card));
  }
  return out;
}

struct Variant {
  PliImpl impl;
  bool scalar;
};

const Variant kVariants[] = {
    {PliImpl::kCsr, false},
    {PliImpl::kCsr, true},
    {PliImpl::kBitmap, false},
    {PliImpl::kBitmap, true},
};

std::string VariantName(const Variant& v) {
  return std::string(v.impl == PliImpl::kCsr ? "csr" : "bitmap") +
         (v.scalar ? "/scalar" : "/native");
}

// Every variant must agree with the scalar-CSR oracle on the partition,
// the Refines answer for each candidate, and the batched RefinesAll.
void ExpectAllVariantsAgree(const Relation& r,
                            const std::vector<Column>& candidates,
                            const std::string& tag) {
  const Pli oracle = [&] {
    ScopedForceScalar guard(true);
    return Pli::FromColumn(r.GetColumn(0), r.NumRows(), PliImpl::kCsr);
  }();
  const auto oracle_partition = CanonicalPartition(oracle);
  std::vector<uint8_t> oracle_valid;
  std::vector<const Column*> pointers;
  for (const Column& c : candidates) pointers.push_back(&c);
  {
    ScopedForceScalar guard(true);
    oracle.RefinesAll(pointers, &oracle_valid);
  }

  for (const Variant& v : kVariants) {
    ScopedForceScalar guard(v.scalar);
    const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows(), v.impl);
    EXPECT_EQ(pli.NumClusters(), oracle.NumClusters())
        << tag << " " << VariantName(v);
    EXPECT_EQ(pli.NumNonSingletonRows(), oracle.NumNonSingletonRows())
        << tag << " " << VariantName(v);
    EXPECT_EQ(pli.DistinctCount(), oracle.DistinctCount())
        << tag << " " << VariantName(v);
    EXPECT_EQ(CanonicalPartition(pli), oracle_partition)
        << tag << " " << VariantName(v);
    EXPECT_EQ(pli.HasBitmap(),
              v.impl == PliImpl::kBitmap && pli.NumClusters() >= 1 &&
                  pli.NumClusters() <= 256)
        << tag << " " << VariantName(v);
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(pli.Refines(candidates[i]), oracle_valid[i] != 0)
          << tag << " " << VariantName(v) << " candidate " << i;
    }
    std::vector<uint8_t> valid;
    pli.RefinesAll(pointers, &valid);
    EXPECT_EQ(valid, oracle_valid) << tag << " " << VariantName(v);
  }
}

TEST(PliImplEquivalenceTest, DomainsAroundMaskThresholds) {
  // 64 fits a single-word mask, 65 spills to 4-word, 256 is the last
  // 4-word domain, 257 disqualifies the sidecar entirely.
  for (const int64_t card : {int64_t{1}, int64_t{2}, int64_t{63},
                             int64_t{64}, int64_t{65}, int64_t{255},
                             int64_t{256}, int64_t{257}}) {
    Relation r = CyclicRelation(2000, card);
    std::vector<Column> candidates;
    candidates.push_back(DeterminedColumn(r, std::min<int64_t>(card, 7)));
    candidates.push_back(DeterminedColumn(r, std::min<int64_t>(card, 64)));
    // A violating candidate: cycles at a different period, so some cluster
    // sees two codes (except when card divides the period).
    Column violating;
    violating.dictionary = {"x", "y", "z"};
    for (RowId row = 0; row < r.NumRows(); ++row) {
      violating.codes.push_back(row % 3);
    }
    candidates.push_back(std::move(violating));
    ExpectAllVariantsAgree(r, candidates,
                           "card=" + std::to_string(card));
  }
}

TEST(PliImplEquivalenceTest, AllDistinctHasNoClustersInAnyVariant) {
  std::vector<std::vector<std::string>> data;
  for (int64_t i = 0; i < 500; ++i) {
    data.push_back({"u" + std::to_string(i)});
  }
  Relation r = Relation::FromRows({"A"}, data, "distinct");
  for (const Variant& v : kVariants) {
    ScopedForceScalar guard(v.scalar);
    const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows(), v.impl);
    EXPECT_EQ(pli.NumClusters(), 0) << VariantName(v);
    EXPECT_TRUE(pli.IsUnique()) << VariantName(v);
    EXPECT_FALSE(pli.HasBitmap()) << VariantName(v);
  }
  ExpectAllVariantsAgree(r, {DeterminedColumn(r, 7)}, "all-distinct");
}

TEST(PliImplEquivalenceTest, AllEqualAndNullHeavy) {
  std::vector<std::vector<std::string>> equal_rows(
      1000, std::vector<std::string>{"k"});
  Relation all_equal = Relation::FromRows({"A"}, equal_rows, "equal");
  ExpectAllVariantsAgree(all_equal, {DeterminedColumn(all_equal, 1)},
                         "all-equal");

  // NULL-heavy: most values empty, a few real ones.
  std::vector<std::vector<std::string>> null_rows;
  for (int64_t i = 0; i < 1200; ++i) {
    null_rows.push_back({i % 5 == 0 ? "v" + std::to_string(i % 11) : ""});
  }
  Relation null_heavy = Relation::FromRows({"A"}, null_rows, "nulls");
  ExpectAllVariantsAgree(null_heavy, {DeterminedColumn(null_heavy, 3)},
                         "null-heavy");
}

TEST(PliImplEquivalenceTest, IntersectAgreesAcrossVariants) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Relation r = RandomRelation(seed, 3, 400, 2 + static_cast<int>(seed));
    const Pli oracle = [&] {
      ScopedForceScalar guard(true);
      return Pli::FromColumn(r.GetColumn(0), r.NumRows(), PliImpl::kCsr)
          .Intersect(Pli::FromColumn(r.GetColumn(1), r.NumRows(),
                                     PliImpl::kCsr));
    }();
    const auto oracle_partition = CanonicalPartition(oracle);
    for (const Variant& v : kVariants) {
      ScopedForceScalar guard(v.scalar);
      const Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows(), v.impl);
      const Pli b = Pli::FromColumn(r.GetColumn(1), r.NumRows(), v.impl);
      const Pli ab = a.Intersect(b);
      EXPECT_EQ(CanonicalPartition(ab), oracle_partition)
          << "seed " << seed << " " << VariantName(v);
      // Three-way intersection exercises sidecar propagation.
      const Pli c = Pli::FromColumn(r.GetColumn(2), r.NumRows(), v.impl);
      const Pli abc = ab.Intersect(c);
      const Pli cab = c.Intersect(a).Intersect(b);
      EXPECT_EQ(CanonicalPartition(abc), CanonicalPartition(cab))
          << "seed " << seed << " " << VariantName(v);
    }
  }
}

TEST(PliImplEquivalenceTest, MemoryBytesAccountsForSidecar) {
  Relation r = CyclicRelation(1000, 16);
  const Pli csr = Pli::FromColumn(r.GetColumn(0), r.NumRows(), PliImpl::kCsr);
  const Pli bm =
      Pli::FromColumn(r.GetColumn(0), r.NumRows(), PliImpl::kBitmap);
  ASSERT_TRUE(bm.HasBitmap());
  ASSERT_FALSE(csr.HasBitmap());
  // The sidecar is one uint16 per row; the budgeted cache must see it.
  EXPECT_GE(bm.MemoryBytes(),
            csr.MemoryBytes() + static_cast<size_t>(r.NumRows()) *
                                    sizeof(uint16_t));
}

TEST(PliImplEquivalenceTest, ForEmptySetVariants) {
  for (const Variant& v : kVariants) {
    ScopedForceScalar guard(v.scalar);
    const Pli pli = Pli::ForEmptySet(6, v.impl);
    EXPECT_EQ(pli.NumClusters(), 1) << VariantName(v);
    EXPECT_EQ(pli.NumNonSingletonRows(), 6) << VariantName(v);
    EXPECT_EQ(pli.DistinctCount(), 1) << VariantName(v);
  }
}

}  // namespace
}  // namespace muds
