#include "core/evidence.h"

#include <chrono>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace muds {

namespace {

// Registry handles for the sampling.* counters, resolved once per process.
struct SamplingMetrics {
  Counter* pairs;
  Counter* refuted;
  Counter* fed_back;
  Counter* probe_ns;

  static const SamplingMetrics& Get() {
    static const SamplingMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      SamplingMetrics m;
      m.pairs = registry.GetCounter("sampling.pairs");
      m.refuted = registry.GetCounter("sampling.refuted");
      m.fed_back = registry.GetCounter("sampling.fed_back");
      m.probe_ns = registry.GetCounter("sampling.probe_ns");
      return m;
    }();
    return metrics;
  }
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// RAII probe timer: accumulates elapsed wall time into sampling.probe_ns.
class ProbeTimer {
 public:
  ProbeTimer() : start_(NowNs()) {}
  ~ProbeTimer() { SamplingMetrics::Get().probe_ns->Add(NowNs() - start_); }

 private:
  int64_t start_;
};

}  // namespace

EvidenceStore::EvidenceStore(const Relation& relation)
    : relation_(&relation) {
  RegisterMetrics();
  for (int c = 0; c < relation.NumColumns(); ++c) universe_.Add(c);
}

void EvidenceStore::RegisterMetrics() { SamplingMetrics::Get(); }

bool EvidenceStore::AddPair(RowId r1, RowId r2, bool fed_back) {
  ColumnSet disagreement;
  for (int c = 0; c < relation_->NumColumns(); ++c) {
    if (relation_->Code(r1, c) != relation_->Code(r2, c)) disagreement.Add(c);
  }
  // Identical rows refute nothing (and cannot occur on deduplicated input).
  if (disagreement.Empty()) return false;
  SamplingMetrics::Get().pairs->Increment();
  if (fed_back) SamplingMetrics::Get().fed_back->Increment();
  std::unique_lock lock(mutex_);
  // Keep the cover subset-minimal (the MinimalSetCollection discipline):
  // a dominated set D ⊇ D' refutes a strict subset of the UCCs D' refutes,
  // so dropping it only costs a few FD refutations (rhs ∈ D \ D') while
  // keeping every probe a walk over a small antichain instead of one over
  // every sampled disagreement set — without this, high-cardinality
  // relations push thousands of near-universe sets into the trie and the
  // probes cost more than the PLI work they save. Losing refutations is
  // always safe (the candidate just proceeds to full validation).
  if (negative_cover_.ContainsSubsetOf(disagreement)) return false;
  for (const ColumnSet& dominated :
       negative_cover_.CollectSupersetsOf(disagreement)) {
    negative_cover_.Erase(dominated);
  }
  return negative_cover_.Insert(disagreement);
}

bool EvidenceStore::RefutesUcc(const ColumnSet& columns) const {
  MUDS_TRACE_SPAN("evidenceProbe");
  const ProbeTimer timer;
  bool refuted;
  {
    std::shared_lock lock(mutex_);
    refuted = negative_cover_.ContainsSubsetOf(universe_.Difference(columns));
  }
  if (refuted) SamplingMetrics::Get().refuted->Increment();
  return refuted;
}

bool EvidenceStore::RefutesFd(const ColumnSet& lhs, int rhs) const {
  MUDS_TRACE_SPAN("evidenceProbe");
  const ProbeTimer timer;
  bool refuted;
  {
    std::shared_lock lock(mutex_);
    refuted = negative_cover_.ContainsSubsetOfWith(universe_.Difference(lhs),
                                                   rhs);
  }
  if (refuted) SamplingMetrics::Get().refuted->Increment();
  return refuted;
}

ColumnSet EvidenceStore::RefutedRhs(const ColumnSet& lhs) const {
  MUDS_TRACE_SPAN("evidenceProbe");
  const ProbeTimer timer;
  ColumnSet refuted;
  {
    std::shared_lock lock(mutex_);
    refuted = negative_cover_.UnionOfSubsetsOf(universe_.Difference(lhs));
  }
  if (!refuted.Empty()) SamplingMetrics::Get().refuted->Add(refuted.Count());
  return refuted;
}

void EvidenceStore::FeedBackUccViolation(const Pli& pli) {
  MUDS_DCHECK(!pli.IsUnique());
  const std::span<const RowId> cluster = pli.cluster(0);
  AddPair(cluster[0], cluster[1], /*fed_back=*/true);
}

void EvidenceStore::FeedBackFdViolation(const Pli& lhs_pli,
                                        const Column& rhs) {
  // The refinement check failed, so some cluster holds two rows with
  // different rhs codes; take the first such pair.
  for (int64_t i = 0; i < lhs_pli.NumClusters(); ++i) {
    const std::span<const RowId> cluster = lhs_pli.cluster(i);
    const int32_t first = rhs.codes[static_cast<size_t>(cluster[0])];
    for (size_t j = 1; j < cluster.size(); ++j) {
      if (rhs.codes[static_cast<size_t>(cluster[j])] != first) {
        AddPair(cluster[0], cluster[j], /*fed_back=*/true);
        return;
      }
    }
  }
  MUDS_DCHECK(false);  // Caller promised a violation exists.
}

size_t EvidenceStore::Size() const {
  std::shared_lock lock(mutex_);
  return negative_cover_.Size();
}

}  // namespace muds
