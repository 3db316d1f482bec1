#include "core/sampling.h"

#include "common/rng.h"
#include "core/evidence.h"
#include "pli/pli_cache.h"

namespace muds {

void SampleEvidence(const SamplingConfig& config,
                    const std::vector<std::pair<int, const Pli*>>& column_plis,
                    EvidenceStore* store) {
  if (!config.enabled() || store == nullptr) return;

  // Columns without a stripped cluster (all-distinct columns) have no
  // agreeing pair to draw.
  std::vector<std::pair<int, const Pli*>> eligible;
  for (const auto& entry : column_plis) {
    if (entry.second->NumClusters() > 0) eligible.push_back(entry);
  }
  if (eligible.empty()) return;

  const int64_t n = static_cast<int64_t>(eligible.size());
  for (int64_t i = 0; i < n; ++i) {
    const auto& [column, pli] = eligible[static_cast<size_t>(i)];
    // Even split of the pair budget; the first `pairs % n` columns absorb
    // the remainder. Per-column generators make the drawn pairs a function
    // of (seed, column) alone, independent of which other columns exist.
    const int64_t share = config.pairs / n + (i < config.pairs % n ? 1 : 0);
    Rng rng(config.seed ^
            (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(column + 1)));
    const uint64_t num_clusters = static_cast<uint64_t>(pli->NumClusters());
    for (int64_t draw = 0; draw < share; ++draw) {
      const std::span<const RowId> cluster =
          pli->cluster(static_cast<int64_t>(rng.NextBelow(num_clusters)));
      // Two distinct positions; stripped clusters always have >= 2 rows.
      const uint64_t size = cluster.size();
      const uint64_t a = rng.NextBelow(size);
      uint64_t b = rng.NextBelow(size - 1);
      if (b >= a) ++b;
      store->AddPair(cluster[a], cluster[b], /*fed_back=*/false);
    }
  }
}

std::unique_ptr<EvidenceStore> BuildSampledEvidence(
    const Relation& relation, PliCache* cache, const SamplingConfig& config) {
  auto store = std::make_unique<EvidenceStore>(relation);
  // The single-column PLIs are pinned in the cache; keep the shared_ptrs
  // alive for the duration of the sampling pass.
  std::vector<std::shared_ptr<const Pli>> pinned;
  std::vector<std::pair<int, const Pli*>> column_plis;
  const ColumnSet active = relation.ActiveColumns();
  for (int c = active.First(); c >= 0; c = active.NextAtLeast(c + 1)) {
    pinned.push_back(cache->Get(ColumnSet::Single(c)));
    column_plis.emplace_back(c, pinned.back().get());
  }
  SampleEvidence(config, column_plis, store.get());
  return store;
}

}  // namespace muds
