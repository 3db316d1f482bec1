#include "research/incremental.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/trace.h"
#include "core/sampling.h"
#include "data/metadata.h"
#include "data/preprocess.h"
#include "ind/spider.h"
#include "setops/set_trie.h"

namespace muds {

namespace {

/// Registry handles for the `incremental.*` metrics, resolved once. The
/// constructor touch in IncrementalProfiler's ctor registers the full set,
/// so zero deltas still appear in metrics reports (the CI presence check
/// relies on that).
struct IncMetrics {
  Counter* batches;
  Counter* appended_rows;
  Counter* duplicates_dropped;
  Counter* revalidated;
  Counter* screened_out;
  Counter* broken;
  Counter* rediscovered;
  Counter* explored_nodes;
  Counter* evidence_hits;

  static const IncMetrics& Get() {
    static const IncMetrics metrics;
    return metrics;
  }

 private:
  IncMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    batches = registry.GetCounter("incremental.batches");
    appended_rows = registry.GetCounter("incremental.appended_rows");
    duplicates_dropped = registry.GetCounter("incremental.duplicates_dropped");
    revalidated = registry.GetCounter("incremental.revalidated");
    screened_out = registry.GetCounter("incremental.screened_out");
    broken = registry.GetCounter("incremental.broken");
    rediscovered = registry.GetCounter("incremental.rediscovered");
    explored_nodes = registry.GetCounter("incremental.explored_nodes");
    evidence_hits = registry.GetCounter("incremental.evidence_hits");
  }
};

}  // namespace

uint64_t IncrementalProfiler::HashRowValues(const Relation& relation,
                                            RowId row) {
  // FNV-1a over each cell's length and bytes. Hashing the string values —
  // not the codes — keeps a row's hash stable across the dictionary remaps
  // AppendBatch performs, which is what lets the index built over earlier
  // rows screen later batches.
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (int c = 0; c < relation.NumColumns(); ++c) {
    const std::string& value = relation.Value(row, c);
    uint64_t size = value.size();
    for (int i = 0; i < 8; ++i) mix((size >> (8 * i)) & 0xFF);
    for (char ch : value) mix(static_cast<unsigned char>(ch));
  }
  return h;
}

bool IncrementalProfiler::EqualRows(const Relation& a, RowId row_a,
                                    const Relation& b, RowId row_b) {
  for (int c = 0; c < a.NumColumns(); ++c) {
    if (a.Value(row_a, c) != b.Value(row_b, c)) return false;
  }
  return true;
}

IncrementalProfiler::IncrementalProfiler(const Relation& base,
                                         const ProfileOptions& options)
    : options_(options),
      run_(std::make_shared<RunMetrics>(RunMetrics::Current())),
      pool_(options.num_threads) {
  const MetricsScope scope(run_);
  IncMetrics::Get();

  {
    MUDS_TRACE_SPAN(&timings_, "dedup");
    DeduplicateResult deduped = DeduplicateRows(base, &pool_);
    relation_.emplace(std::move(deduped.relation));
    duplicates_removed_ = deduped.duplicates_removed;
  }

  // The base profile runs the configured algorithm unchanged, on this
  // profiler's pool; incremental maintenance only kicks in from the first
  // Append.
  ProfilingResult base_result =
      ProfileDeduplicated(*relation_, options_, &pool_);
  inds_ = std::move(base_result.inds);
  uccs_ = std::move(base_result.uccs);
  fds_ = std::move(base_result.fds);
  Canonicalize(&inds_);
  Canonicalize(&uccs_);
  Canonicalize(&fds_);
  for (const auto& entry : base_result.timings.entries()) {
    timings_.Add(entry.first, entry.second);
  }
  algorithm_used_ = base_result.algorithm_used;

  cache_ = std::make_unique<PliCache>(*relation_, options_.pli_budget_bytes,
                                      &pool_, options_.spill);

  EvidenceStore::RegisterMetrics();
  // Built even for a trivial base relation: later batches still seed and
  // consult the store (sampling over empty PLIs just draws nothing).
  if (options_.sampling.enabled()) {
    MUDS_TRACE_SPAN(&timings_, "evidenceBuild");
    evidence_ =
        BuildSampledEvidence(*relation_, cache_.get(), options_.sampling);
  }

  row_index_.reserve(static_cast<size_t>(relation_->NumRows()));
  for (RowId row = 0; row < relation_->NumRows(); ++row) {
    row_index_[HashRowValues(*relation_, row)].push_back(row);
  }
}

Status IncrementalProfiler::Append(const Relation& batch) {
  const MetricsScope scope(run_);
  if (batch.NumColumns() != relation_->NumColumns()) {
    return Status::InvalidArgument(
        "append batch has " + std::to_string(batch.NumColumns()) +
        " columns; relation has " + std::to_string(relation_->NumColumns()));
  }
  if (batch.ColumnNames() != relation_->ColumnNames()) {
    return Status::InvalidArgument(
        "append batch schema does not match the relation's column names");
  }

  MUDS_TRACE_SPAN(&timings_, "incrementalAppend");
  const IncMetrics& metrics = IncMetrics::Get();
  metrics.batches->Increment();

  // Drop batch rows that duplicate an existing row (or an earlier row of
  // this batch): the profile of the deduplicated instance is what is
  // maintained, and duplicates do not change it (§3).
  std::vector<RowId> kept;
  kept.reserve(static_cast<size_t>(batch.NumRows()));
  std::unordered_map<uint64_t, std::vector<RowId>> pending;
  for (RowId row = 0; row < batch.NumRows(); ++row) {
    const uint64_t hash = HashRowValues(batch, row);
    bool duplicate = false;
    if (auto it = row_index_.find(hash); it != row_index_.end()) {
      for (RowId old : it->second) {
        if (EqualRows(*relation_, old, batch, row)) {
          duplicate = true;
          break;
        }
      }
    }
    if (!duplicate) {
      if (auto it = pending.find(hash); it != pending.end()) {
        for (RowId prior : it->second) {
          if (EqualRows(batch, prior, batch, row)) {
            duplicate = true;
            break;
          }
        }
      }
    }
    if (duplicate) continue;
    pending[hash].push_back(row);
    kept.push_back(row);
  }
  const int64_t dropped =
      static_cast<int64_t>(batch.NumRows()) - static_cast<int64_t>(kept.size());
  metrics.duplicates_dropped->Add(dropped);
  duplicates_removed_ += dropped;
  if (kept.empty()) return Status::Ok();
  metrics.appended_rows->Add(static_cast<int64_t>(kept.size()));

  // SelectRows rebuilds minimal dictionaries — the AppendBatch precondition
  // that keeps phantom values out of the merged dictionaries (SPIDER reads
  // them as value lists).
  const Relation sub = batch.SelectRows(kept);
  const RowId old_rows = relation_->NumRows();
  relation_->AppendBatch(sub, &pool_);
  const RowId new_rows = relation_->NumRows();
  for (RowId row = old_rows; row < new_rows; ++row) {
    row_index_[HashRowValues(*relation_, row)].push_back(row);
  }
  // Every cached PLI describes the old instance. The old cache goes before
  // the new one is built, so the two never hold memory at once.
  cache_.reset();
  cache_ = std::make_unique<PliCache>(*relation_, options_.pli_budget_bytes,
                                      &pool_, options_.spill);

  {
    // Appends can break INDs and create them, so there is no monotone
    // repair; but SPIDER over the merged dictionaries is one multiway merge
    // with no lattice, so a full recomputation is the cheap option.
    MUDS_TRACE_SPAN(&timings_, "incrementalInds");
    inds_ = Spider::Discover(*relation_, options_.spill);
    Canonicalize(&inds_);
  }

  // Witness screen (Bläsius et al., arXiv 2103.13331): a UCC over S (or an
  // FD with left-hand side S) can only have broken if some appended row
  // collides with another row in every column of S — i.e. its value has
  // total count >= 2 in each of those columns. Collect each appended row's
  // collision column set; the distinct sets form a SetTrie, and
  // ContainsSupersetOf(S) answers "could S have broken?" in one traversal.
  SetTrie witness;
  {
    MUDS_TRACE_SPAN(&timings_, "incrementalDetect");
    const int num_columns = relation_->NumColumns();
    // Occurrences of each value over the whole grown column.
    std::vector<std::vector<RowId>> value_count(
        static_cast<size_t>(num_columns));
    for (int c = 0; c < num_columns; ++c) {
      const Column& column = relation_->GetColumn(c);
      std::vector<RowId>& count = value_count[static_cast<size_t>(c)];
      count.assign(static_cast<size_t>(column.Cardinality()), 0);
      for (const int32_t code : column.codes) {
        ++count[static_cast<size_t>(code)];
      }
    }
    // Evidence seeding: every collision column of an appended row names a
    // concrete partner row sharing the row's value there — a definite row
    // pair the store can record before any survivor is re-validated. (The
    // collision *set* itself is not pair evidence: each column's partner
    // is a different row.) The single-column PLIs keep their clusters in
    // code order, so the partner is one binary search away.
    std::vector<std::shared_ptr<const Pli>> column_plis;
    if (evidence_ != nullptr) {
      column_plis.reserve(static_cast<size_t>(num_columns));
      for (int c = 0; c < num_columns; ++c) {
        column_plis.push_back(cache_->Get(ColumnSet::Single(c)));
      }
    }
    const auto seed_pair = [&](RowId row, int c) {
      const Pli& pli = *column_plis[static_cast<size_t>(c)];
      const int32_t code = relation_->Code(row, c);
      int64_t lo = 0;
      int64_t hi = pli.NumClusters() - 1;
      while (lo <= hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        const int32_t mid_code = relation_->Code(pli.cluster(mid)[0], c);
        if (mid_code < code) {
          lo = mid + 1;
        } else if (mid_code > code) {
          hi = mid - 1;
        } else {
          for (RowId partner : pli.cluster(mid)) {
            if (partner != row) {
              evidence_->AddPair(row, partner, false);
              return;
            }
          }
          return;
        }
      }
    };
    std::vector<int> collision_columns;
    for (RowId row = old_rows; row < new_rows; ++row) {
      collision_columns.clear();
      for (int c = 0; c < num_columns; ++c) {
        const auto code = static_cast<size_t>(relation_->Code(row, c));
        if (value_count[static_cast<size_t>(c)][code] >= 2) {
          collision_columns.push_back(c);
        }
      }
      if (evidence_ != nullptr) {
        for (int c : collision_columns) seed_pair(row, c);
      }
      // The empty set is inserted too: it witnesses the empty-LHS/empty-UCC
      // dependencies, which any appended row can break.
      witness.Insert(ColumnSet::FromIndices(collision_columns));
    }
  }

  MaintainUccs(witness);
  MaintainFds(witness);
  return Status::Ok();
}

void IncrementalProfiler::MaintainUccs(const SetTrie& witness) {
  MUDS_TRACE_SPAN(&timings_, "incrementalUccs");
  const IncMetrics& metrics = IncMetrics::Get();

  // Appended rows can only break uniqueness, never restore it, so the old
  // minimal UCCs split into survivors (still minimal: a proper subset that
  // became valid would have had to be valid before) and broken seeds.
  std::vector<ColumnSet> kept;
  std::vector<ColumnSet> broken;
  kept.reserve(uccs_.size());
  for (const ColumnSet& ucc : uccs_) {
    if (!witness.ContainsSupersetOf(ucc)) {
      metrics.screened_out->Increment();
      kept.push_back(ucc);
      continue;
    }
    // Sampling-first: a recorded pair agreeing on all of the UCC is a
    // definite break — skip the PLI re-validation entirely.
    if (evidence_ != nullptr && evidence_->RefutesUcc(ucc)) {
      metrics.evidence_hits->Increment();
      broken.push_back(ucc);
      continue;
    }
    metrics.revalidated->Increment();
    const std::shared_ptr<const Pli> pli = cache_->Get(ucc);
    if (pli->IsUnique()) {
      kept.push_back(ucc);
    } else {
      if (evidence_ != nullptr) evidence_->FeedBackUccViolation(*pli);
      broken.push_back(ucc);
    }
  }
  if (broken.empty()) {
    uccs_ = std::move(kept);  // Subsequence of a canonical list: still sorted.
    return;
  }
  metrics.broken->Add(static_cast<int64_t>(broken.size()));

  // Localized upward re-exploration. Every new minimal UCC strictly
  // contains some broken seed, and everything strictly between seed and new
  // minimum is non-unique (else the new minimum would not be minimal), so a
  // level-wise walk from the seeds, pruned by the still-valid minima, finds
  // exactly the replacements. Constant columns never occur in a minimal
  // UCC (dropping one leaves the partition unchanged), so expansion sticks
  // to the active columns.
  SetTrie confirmed;
  for (const ColumnSet& ucc : kept) confirmed.Insert(ucc);
  const std::vector<int> active = relation_->ActiveColumns().ToIndices();

  std::map<int, std::vector<ColumnSet>> frontier;  // Keyed by set size.
  std::unordered_set<ColumnSet, ColumnSetHash> enqueued;
  const auto expand = [&](const ColumnSet& base) {
    for (int c : active) {
      if (base.Contains(c)) continue;
      ColumnSet candidate = base.With(c);
      if (enqueued.insert(candidate).second) {
        frontier[candidate.Count()].push_back(candidate);
      }
    }
  };
  for (const ColumnSet& seed : broken) expand(seed);

  std::vector<ColumnSet> discovered;
  while (!frontier.empty()) {
    auto level_it = frontier.begin();
    std::vector<ColumnSet> level = std::move(level_it->second);
    frontier.erase(level_it);
    std::sort(level.begin(), level.end());
    for (const ColumnSet& candidate : level) {
      if (confirmed.ContainsSubsetOf(candidate)) continue;
      if (evidence_ != nullptr && evidence_->RefutesUcc(candidate)) {
        metrics.evidence_hits->Increment();
        expand(candidate);
        continue;
      }
      metrics.explored_nodes->Increment();
      const std::shared_ptr<const Pli> pli = cache_->Get(candidate);
      if (pli->IsUnique()) {
        confirmed.Insert(candidate);
        discovered.push_back(candidate);
        metrics.rediscovered->Increment();
      } else {
        if (evidence_ != nullptr) evidence_->FeedBackUccViolation(*pli);
        expand(candidate);
      }
    }
  }

  kept.insert(kept.end(), discovered.begin(), discovered.end());
  Canonicalize(&kept);
  uccs_ = std::move(kept);
}

void IncrementalProfiler::MaintainFds(const SetTrie& witness) {
  MUDS_TRACE_SPAN(&timings_, "incrementalFds");
  const IncMetrics& metrics = IncMetrics::Get();
  const int num_columns = relation_->NumColumns();

  // Right-hand sides are independent: X → A breaks or survives regardless
  // of any other RHS, so each one repairs in parallel. A RHS whose minimal
  // FD set is empty stays empty — validity only shrinks under appends.
  std::vector<std::vector<ColumnSet>> lhs_by_rhs(
      static_cast<size_t>(num_columns));
  for (const Fd& fd : fds_) {
    lhs_by_rhs[static_cast<size_t>(fd.rhs)].push_back(fd.lhs);
  }
  std::vector<int> rhs_list;
  for (int c = 0; c < num_columns; ++c) {
    if (!lhs_by_rhs[static_cast<size_t>(c)].empty()) rhs_list.push_back(c);
  }

  const std::vector<int> active = relation_->ActiveColumns().ToIndices();
  std::vector<std::vector<ColumnSet>> result_by_rhs(
      static_cast<size_t>(num_columns));

  const auto process_rhs = [&](int64_t index) {
    const int rhs = rhs_list[static_cast<size_t>(index)];
    const Column& rhs_column = relation_->GetColumn(rhs);

    // Screen and revalidate — same monotonicity as UCCs: a violating pair
    // must involve an appended row agreeing with another row on the whole
    // LHS (they may differ freely on the RHS, so only the LHS is screened).
    std::vector<ColumnSet> kept;
    std::vector<ColumnSet> broken;
    for (const ColumnSet& lhs : lhs_by_rhs[static_cast<size_t>(rhs)]) {
      if (!witness.ContainsSupersetOf(lhs)) {
        metrics.screened_out->Increment();
        kept.push_back(lhs);
        continue;
      }
      // Sampling-first (thread-safe: probes take a shared lock): a
      // recorded pair agreeing on the LHS but not the RHS is a definite
      // break — skip the PLI re-validation.
      if (evidence_ != nullptr && evidence_->RefutesFd(lhs, rhs)) {
        metrics.evidence_hits->Increment();
        broken.push_back(lhs);
        continue;
      }
      metrics.revalidated->Increment();
      const std::shared_ptr<const Pli> pli = cache_->Get(lhs);
      if (pli->Refines(rhs_column)) {
        kept.push_back(lhs);
      } else {
        if (evidence_ != nullptr) {
          evidence_->FeedBackFdViolation(*pli, rhs_column);
        }
        broken.push_back(lhs);
      }
    }

    if (!broken.empty()) {
      metrics.broken->Add(static_cast<int64_t>(broken.size()));
      SetTrie confirmed;
      for (const ColumnSet& lhs : kept) confirmed.Insert(lhs);

      std::map<int, std::vector<ColumnSet>> frontier;
      std::unordered_set<ColumnSet, ColumnSetHash> enqueued;
      const auto expand = [&](const ColumnSet& base) {
        for (int c : active) {
          if (c == rhs || base.Contains(c)) continue;
          ColumnSet candidate = base.With(c);
          if (enqueued.insert(candidate).second) {
            frontier[candidate.Count()].push_back(candidate);
          }
        }
      };
      for (const ColumnSet& seed : broken) expand(seed);

      while (!frontier.empty()) {
        auto level_it = frontier.begin();
        std::vector<ColumnSet> level = std::move(level_it->second);
        frontier.erase(level_it);
        std::sort(level.begin(), level.end());
        for (const ColumnSet& candidate : level) {
          if (confirmed.ContainsSubsetOf(candidate)) continue;
          if (evidence_ != nullptr &&
              evidence_->RefutesFd(candidate, rhs)) {
            metrics.evidence_hits->Increment();
            expand(candidate);
            continue;
          }
          metrics.explored_nodes->Increment();
          const std::shared_ptr<const Pli> pli = cache_->Get(candidate);
          if (pli->Refines(rhs_column)) {
            confirmed.Insert(candidate);
            kept.push_back(candidate);
            metrics.rediscovered->Increment();
          } else {
            if (evidence_ != nullptr) {
              evidence_->FeedBackFdViolation(*pli, rhs_column);
            }
            expand(candidate);
          }
        }
      }
    }

    Canonicalize(&kept);
    result_by_rhs[static_cast<size_t>(rhs)] = std::move(kept);
  };

  ParallelForOrInline(&pool_, static_cast<int64_t>(rhs_list.size()),
                      process_rhs);

  std::vector<Fd> fds;
  for (int rhs = 0; rhs < num_columns; ++rhs) {
    for (const ColumnSet& lhs : result_by_rhs[static_cast<size_t>(rhs)]) {
      fds.push_back(Fd{lhs, rhs});
    }
  }
  Canonicalize(&fds);
  fds_ = std::move(fds);
}

ProfilingResult IncrementalProfiler::Result() const {
  ProfilingResult result;
  result.inds = inds_;
  result.uccs = uccs_;
  result.fds = fds_;
  result.timings = timings_;
  result.duplicates_removed = duplicates_removed_;
  result.algorithm_used = algorithm_used_;
  result.column_names = relation_->ColumnNames();
  result.num_threads_used = pool_.NumThreads();
  result.metrics = run_->Snapshot();
  return result;
}

}  // namespace muds
