#ifndef MUDS_PLI_POSITION_LIST_INDEX_H_
#define MUDS_PLI_POSITION_LIST_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/relation.h"

namespace muds {

/// Whether a freshly built PLI may carry the bitmap sidecar.
///
/// Every engine and the PliCache build with kAuto — the one
/// attach rule. The forced layouts exist for kernel tests, fuzzers and
/// micro-benchmarks that need a fixed representation as their reference
/// (and kBitmap is how Intersect propagates a sidecar); every layout
/// yields the same clusters.
enum class PliImpl {
  /// Flat CSR plus the low-cardinality bitmap sidecar when it pays off:
  /// sidecars attach when the PLI has 1..256 clusters and the relation is
  /// large enough (>= 64 rows) for the fast paths to matter.
  kAuto,
  /// Flat CSR only — the scalar reference layout; never attaches a
  /// sidecar (and Intersect never propagates one).
  kCsr,
  /// Attach the sidecar whenever representable (1..256 clusters),
  /// regardless of relation size.
  kBitmap,
};

/// Position list index (PLI), also called a stripped partition (§2.2).
///
/// A PLI for a column combination X lists, per distinct value of the
/// projection on X, the row ids sharing that value — keeping only clusters
/// of size >= 2 ("stripped"), because singleton clusters can never witness a
/// duplicate (UCC check) or an FD violation (refinement check).
///
/// This is the data structure shared between the UCC and FD tasks in the
/// holistic algorithms: it is built once per column while the input is read
/// and then only ever intersected.
///
/// Storage is a flat CSR layout: one contiguous row-id array plus an offset
/// array with one entry per cluster boundary (offsets()[i] .. offsets()[i+1]
/// delimit cluster i). Compared to the earlier vector-of-vectors layout this
/// removes one heap allocation and one pointer chase per cluster — §6.4
/// names the PLI intersect as the dominant profiling cost, and on the short,
/// many-cluster relations of the lattice walks that cost was allocator-bound.
/// All construction paths (FromColumn, Intersect) are allocation-free
/// kernels over a reusable thread-local arena; the only allocations are the
/// exact-size buffers of the returned PLI itself.
///
/// Low-cardinality specialization: when a PLI has at most 256 clusters (and
/// the impl allows it) a bitmap sidecar `cluster_of_row` — one uint16
/// cluster id per row, kNoCluster for stripped singletons — is attached.
/// With the sidecar, Refines on memory-bound relations (beyond a row-count
/// threshold; smaller columns stay on the cache-friendly gather walk)
/// becomes a sequential word-parallel mask pass (domain <= 64: one 64-bit
/// seen-mask per cluster; <= 256: a 4-word mask),
/// RefinesAll skips the probe-table fill, and Intersect of two sidecar PLIs
/// runs a counting sort over pair codes instead of hashing through a probe
/// table. Sidecars propagate through Intersect; MemoryBytes() includes
/// them, so the byte-budgeted PliCache stays accurate.
class Pli {
 public:
  /// Materialized cluster type, kept for test oracles and builders that
  /// assemble clusters incrementally; the Pli itself stores CSR.
  using Cluster = std::vector<RowId>;

  /// Sidecar id of rows outside every stripped cluster.
  static constexpr uint16_t kNoCluster = 0xFFFF;

  /// Max cluster count representable in the bitmap sidecar.
  static constexpr int64_t kMaxSidecarClusters = 256;

  /// Below this row count kAuto skips the sidecar: the fast paths cannot
  /// recoup even the sidecar's construction pass.
  static constexpr RowId kAutoSidecarMinRows = 64;

  /// Builds the PLI of a single column (counting sort over the dictionary
  /// codes; no per-cluster allocations). `impl` selects whether the bitmap
  /// sidecar may attach.
  static Pli FromColumn(const Column& column, RowId num_rows,
                        PliImpl impl = PliImpl::kAuto);

  /// PLI of the empty column combination: one cluster holding every row
  /// (empty if the relation has fewer than two rows).
  static Pli ForEmptySet(RowId num_rows, PliImpl impl = PliImpl::kAuto);

  /// Flattens materialized clusters into CSR. Every cluster must have
  /// size >= 2 (checked in debug builds). Compatibility/test path — the hot
  /// construction paths never materialize nested clusters.
  Pli(const std::vector<Cluster>& clusters, RowId num_rows);

  /// Intersects two PLIs: the PLI of X ∪ Y from the PLIs of X and Y. When
  /// both operands carry a bitmap sidecar and the pair-code domain is small
  /// enough, a counting sort over (id_a, id_b) pair codes replaces the
  /// probe-table method; otherwise bucket compaction runs entirely in a
  /// thread-local arena. Either way the result is written into its final
  /// flat buffers — no per-cluster allocations — and a sidecar is attached
  /// when one of the inputs had one and the result is representable. The
  /// two kernels emit the same clusters (rows ascending within each
  /// cluster); only the cluster order may differ, which no consumer
  /// observes (dependency sets are order-independent).
  Pli Intersect(const Pli& other) const;

  /// True if X functionally determines the column with the given codes
  /// (Lemma 1 via direct refinement: every cluster of X is constant in the
  /// column). Cheaper than a full Intersect when only validity is needed.
  /// With a bitmap sidecar and a low-cardinality candidate this is a
  /// sequential mask pass; otherwise a per-cluster scan (SIMD-gathered
  /// where available).
  bool Refines(const Column& column) const;

  /// Batched refinement: validates every candidate column in `columns` at
  /// once and writes 1/0 per candidate into `valid` (resized to
  /// `columns.size()`). Fills the probe table once (or reuses the bitmap
  /// sidecar as a ready-made probe table), then streams the rows
  /// sequentially, so the per-candidate cost is one sequential read of the
  /// candidate's code array instead of one random-access cluster walk each —
  /// the lattice check loops validate many right-hand sides against the same
  /// left-hand side PLI (§5.1/§5.2). Candidates drop out of the scan as
  /// soon as they are violated; the scan stops when none survive.
  void RefinesAll(std::span<const Column* const> columns,
                  std::vector<uint8_t>* valid) const;

  /// True if the underlying column combination is a UCC: no duplicate
  /// projections, i.e. no (stripped) cluster remains.
  bool IsUnique() const { return rows_.empty(); }

  /// Number of stripped clusters.
  int64_t NumClusters() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }

  /// Number of rows that appear in some cluster (i.e. have a duplicate).
  int64_t NumNonSingletonRows() const {
    return static_cast<int64_t>(rows_.size());
  }

  /// Number of distinct values of the projection — the cardinality |X|r that
  /// drives FUN's partition-refinement test (Lemma 1).
  int64_t DistinctCount() const {
    return static_cast<int64_t>(num_rows_) - NumNonSingletonRows() +
           NumClusters();
  }

  RowId NumRows() const { return num_rows_; }

  /// Cluster `i` as a view into the flat row array.
  std::span<const RowId> cluster(int64_t i) const {
    return {rows_.data() + offsets_[static_cast<size_t>(i)],
            rows_.data() + offsets_[static_cast<size_t>(i) + 1]};
  }

  /// All clustered rows, concatenated in cluster order.
  std::span<const RowId> rows() const { return rows_; }

  /// Cluster boundaries: cluster i spans offsets()[i] .. offsets()[i+1].
  /// Always has NumClusters() + 1 entries (a lone 0 for an empty PLI).
  std::span<const uint32_t> offsets() const { return offsets_; }

  /// True if the low-cardinality bitmap sidecar is attached.
  bool HasBitmap() const { return !cluster_of_row_.empty(); }

  /// The sidecar: cluster id per row (kNoCluster for stripped singletons).
  /// Empty when no sidecar is attached.
  std::span<const uint16_t> bitmap_cluster_of_row() const {
    return cluster_of_row_;
  }

  /// Heap footprint of this PLI in bytes — what the byte-budgeted PliCache
  /// charges for a cached entry. Includes the bitmap sidecar.
  size_t MemoryBytes() const {
    return rows_.capacity() * sizeof(RowId) +
           offsets_.capacity() * sizeof(uint32_t) +
           cluster_of_row_.capacity() * sizeof(uint16_t) + sizeof(Pli);
  }

  /// Fills `probe` (size num_rows) with the cluster id of each row, or -1
  /// for rows in singleton clusters. Exposed for bulk FD checks. Reuses the
  /// buffer in place when it is already the right size.
  void FillProbeTable(std::vector<int32_t>* probe) const;

  /// Exact size of the serialized form — the spill-tier wire format.
  size_t SerializedBytes() const;

  /// Writes exactly SerializedBytes() bytes to `out`. The format captures
  /// rows, offsets, the bitmap sidecar, and the row count verbatim, so a
  /// reloaded PLI is identical to the original: sidecar presence is stored,
  /// not re-derived from the attach policy.
  void SerializeTo(char* out) const;

  /// Inverse of SerializeTo. Fails with ParseError on a truncated or
  /// inconsistent buffer.
  static Result<Pli> Deserialize(const char* data, size_t bytes);

 private:
  // Takes ownership of pre-sized CSR buffers (the kernel entry point).
  Pli(std::vector<RowId> rows, std::vector<uint32_t> offsets, RowId num_rows);

  // Attaches the uint16 sidecar when `impl` and the cluster count allow it
  // (kAuto additionally requires num_rows_ >= kAutoSidecarMinRows). One
  // sequential fill plus one scatter over the clustered rows; no-op when
  // ineligible.
  void MaybeAttachSidecar(PliImpl impl);

  // Sidecar-specialized kernels (require HasBitmap()).
  bool RefinesBitmap(const Column& column) const;
  Pli IntersectPairCodes(const Pli& other) const;

  std::vector<RowId> rows_;        // Clustered rows, concatenated.
  std::vector<uint32_t> offsets_;  // NumClusters() + 1 cluster boundaries.
  // Bitmap sidecar: cluster id per row, kNoCluster outside every cluster.
  // Empty unless NumClusters() is in [1, kMaxSidecarClusters] and the
  // construction impl allowed attachment.
  std::vector<uint16_t> cluster_of_row_;
  RowId num_rows_;
};

}  // namespace muds

#endif  // MUDS_PLI_POSITION_LIST_INDEX_H_
