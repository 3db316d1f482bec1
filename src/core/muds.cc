#include "core/muds.h"

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/evidence.h"
#include "data/projection_probe.h"
#include "fd/fd_util.h"
#include "ind/spider.h"
#include "pli/pli_cache.h"
#include "setops/antichain.h"
#include "setops/hitting_set.h"
#include "setops/set_trie.h"
#include "ucc/ducc.h"
#include "ucc/lattice_traversal.h"

namespace muds {

ColumnSet ConnectorLookup(const std::vector<ColumnSet>& minimal_uccs,
                          const ColumnSet& connector) {
  ColumnSet result;
  for (const ColumnSet& ucc : minimal_uccs) {
    if (connector.IsSubsetOf(ucc)) result = result.Union(ucc);
  }
  return result.Difference(connector);
}

namespace {

// Minimal-UCC store with the §5.4 prefix tree, optionally degraded to
// linear scans for the ablation benchmark.
class UccStore {
 public:
  UccStore(std::vector<ColumnSet> uccs, bool use_trie)
      : list_(std::move(uccs)), use_trie_(use_trie) {
    if (use_trie_) {
      for (const ColumnSet& ucc : list_) trie_.Insert(ucc);
    }
  }

  std::vector<ColumnSet> SupersetsOf(const ColumnSet& set) const {
    if (use_trie_) return trie_.CollectSupersetsOf(set);
    std::vector<ColumnSet> out;
    for (const ColumnSet& ucc : list_) {
      if (set.IsSubsetOf(ucc)) out.push_back(ucc);
    }
    return out;
  }

  std::vector<ColumnSet> SubsetsOf(const ColumnSet& set) const {
    if (use_trie_) return trie_.CollectSubsetsOf(set);
    std::vector<ColumnSet> out;
    for (const ColumnSet& ucc : list_) {
      if (ucc.IsSubsetOf(set)) out.push_back(ucc);
    }
    return out;
  }

  // Table 2: candidate right-hand sides for a left-hand side split off
  // `connector`.
  ColumnSet Lookup(const ColumnSet& connector) const {
    ColumnSet result;
    for (const ColumnSet& ucc : SupersetsOf(connector)) {
      result = result.Union(ucc);
    }
    return result.Difference(connector);
  }

  const std::vector<ColumnSet>& All() const { return list_; }

 private:
  std::vector<ColumnSet> list_;
  SetTrie trie_;
  bool use_trie_;
};

// Verified FDs found so far: a grow-only map lhs → right-hand sides (every
// entry has been validated against the data) plus, per right-hand side, the
// antichain of minimal left-hand sides that forms the final answer.
class FdStore {
 public:
  // Records the verified FD lhs → rhs. Returns true if it is new knowledge:
  // no stored lhs' ⊆ lhs already determined rhs. Dominated FDs are not
  // recorded at all — they carry no connector information a stored subset
  // does not already carry.
  bool Add(const ColumnSet& lhs, int rhs) {
    MinimalSetCollection& collection = minimal_[rhs];
    if (collection.ContainsSubsetOf(lhs)) return false;
    collection.Insert(lhs);
    AddRaw(lhs, rhs);
    return true;
  }

  // True if a stored left-hand side within `lhs` already determines `rhs`
  // (the FD lhs → rhs is implied; no data check needed).
  bool Covers(const ColumnSet& lhs, int rhs) const {
    auto it = minimal_.find(rhs);
    return it != minimal_.end() && it->second.ContainsSubsetOf(lhs);
  }

  // All stored (lhs, rhs-set) pairs, including entries later superseded by
  // smaller left-hand sides (they remain valid FDs and useful connectors).
  const std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash>& entries()
      const {
    return rhs_of_lhs_;
  }

  // Stored left-hand sides that are subsets of `set` (including `set`):
  // the connectors of Algorithm 2.
  std::vector<ColumnSet> LhsSubsetsOf(const ColumnSet& set) const {
    return lhs_trie_.CollectSubsetsOf(set);
  }

  // Right-hand sides stored for exactly `lhs` (empty set if none).
  ColumnSet RhsOf(const ColumnSet& lhs) const {
    auto it = rhs_of_lhs_.find(lhs);
    return it == rhs_of_lhs_.end() ? ColumnSet() : it->second;
  }

  std::vector<ColumnSet> MinimalLhsFor(int rhs) const {
    auto it = minimal_.find(rhs);
    return it == minimal_.end() ? std::vector<ColumnSet>()
                                : it->second.CollectAll();
  }

  // Replaces the minimal answer for `rhs` (used by exhaustive completion).
  void ReplaceMinimal(int rhs, const std::vector<ColumnSet>& lhss) {
    minimal_[rhs].Clear();
    for (const ColumnSet& lhs : lhss) {
      minimal_[rhs].Insert(lhs);
      AddRaw(lhs, rhs);
    }
  }

  std::vector<Fd> MinimalFds() const {
    std::vector<Fd> fds;
    for (const auto& [rhs, collection] : minimal_) {
      for (const ColumnSet& lhs : collection.CollectAll()) {
        fds.push_back(Fd{lhs, rhs});
      }
    }
    return fds;
  }

 private:
  void AddRaw(const ColumnSet& lhs, int rhs) {
    rhs_of_lhs_[lhs].Add(rhs);
    lhs_trie_.Insert(lhs);
  }

  std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash> rhs_of_lhs_;
  SetTrie lhs_trie_;
  std::map<int, MinimalSetCollection> minimal_;
};

// Registry handles for MUDS' counters, resolved once per process. A run's
// own counts are its RunMetrics view of them (common/metrics.h).
struct MudsCounters {
  Counter* fd_checks;           // Total; the next three split it per phase.
  Counter* fd_checks_minimize;  // "minimizeFDs" (§5.1).
  Counter* fd_checks_rz;        // "calculateRZ" (§5.2).
  Counter* fd_checks_shadowed;  // §5.3 and the exhaustive completion.
  Counter* fd_probe_scans;      // Row probes run (see ProbeRefutedRhs).
  Counter* fd_probe_refuted;    // Candidates a probe refuted.
  Counter* refines_all_batches;
  Counter* refines_all_candidates;
  Counter* rz_nodes_visited;
  Counter* rz_walk_steps;
  Counter* completion_nodes_visited;
  Counter* completion_walk_steps;
  Counter* shadowed_tasks;
  Counter* shadowed_rounds;
  Counter* connector_lookups;
  Counter* parallel_tasks;

  static const MudsCounters& Get() {
    static const MudsCounters counters = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      MudsCounters c;
      c.fd_checks = registry.GetCounter("muds.fd_checks");
      c.fd_checks_minimize = registry.GetCounter("muds.fd_checks.minimize");
      c.fd_checks_rz = registry.GetCounter("muds.fd_checks.rz");
      c.fd_checks_shadowed = registry.GetCounter("muds.fd_checks.shadowed");
      c.fd_probe_scans = registry.GetCounter("muds.fd_probe.scans");
      c.fd_probe_refuted = registry.GetCounter("muds.fd_probe.refuted");
      c.refines_all_batches = registry.GetCounter("muds.refines_all.batches");
      c.refines_all_candidates =
          registry.GetCounter("muds.refines_all.candidates");
      c.rz_nodes_visited = registry.GetCounter("muds.rz.nodes_visited");
      c.rz_walk_steps = registry.GetCounter("muds.rz.walk_steps");
      c.completion_nodes_visited =
          registry.GetCounter("muds.completion.nodes_visited");
      c.completion_walk_steps =
          registry.GetCounter("muds.completion.walk_steps");
      c.shadowed_tasks = registry.GetCounter("muds.shadowed_tasks");
      c.shadowed_rounds = registry.GetCounter("muds.shadowed_rounds");
      c.connector_lookups = registry.GetCounter("muds.connector_lookups");
      c.parallel_tasks = registry.GetCounter("muds.parallel_tasks");
      return c;
    }();
    return counters;
  }
};

// Pre-rendered span args for a per-right-hand-side traversal task.
std::string RhsArgs(int rhs) {
  return "{\"rhs\":" + std::to_string(rhs) + "}";
}

struct PairHash {
  size_t operator()(const std::pair<ColumnSet, ColumnSet>& p) const {
    return p.first.Hash() * 1000003 + p.second.Hash();
  }
};

// Task buckets keyed by (context, lhs) and processed by descending lhs
// size, merging right-hand sides of tasks that meet at the same node. This
// implements the task queues of Algorithms 1 and 4 without re-expanding a
// node once per path through the subset lattice.
class TaskLevels {
 public:
  using Key = std::pair<ColumnSet, ColumnSet>;  // (context, lhs)

  void Add(const ColumnSet& context, const ColumnSet& lhs,
           const ColumnSet& rhs) {
    const int size = lhs.Count();
    if (size >= static_cast<int>(levels_.size())) {
      levels_.resize(static_cast<size_t>(size) + 1);
    }
    auto& bucket = levels_[static_cast<size_t>(size)];
    auto [it, inserted] = bucket.emplace(Key{context, lhs}, rhs);
    if (!inserted) it->second = it->second.Union(rhs);
  }

  int MaxSize() const { return static_cast<int>(levels_.size()) - 1; }

  // Tasks of the given lhs size (may be appended to while smaller levels
  // are still pending).
  const std::unordered_map<Key, ColumnSet, PairHash>& Level(int size) const {
    static const std::unordered_map<Key, ColumnSet, PairHash> kEmpty;
    return size < static_cast<int>(levels_.size())
               ? levels_[static_cast<size_t>(size)]
               : kEmpty;
  }

 private:
  std::vector<std::unordered_map<Key, ColumnSet, PairHash>> levels_;
};

class MudsRunner {
 public:
  MudsRunner(const Relation& relation, const EngineConfig& config,
             const MudsOptions& options, ThreadPool* pool)
      : relation_(relation),
        config_(config),
        options_(options),
        pool_(pool != nullptr && pool->NumThreads() > 1 ? pool : nullptr) {}

  MudsResult Run();

 private:
  // Phase implementations; see the section references on each.
  void RunSpider();                 // §2.1, shared load phase.
  void RunDucc();                   // §2.2.
  void MinimizeFdsFromUccs();       // §5.1, Algorithm 1.
  void CalculateRz();               // §5.2.
  void DiscoverShadowedFds();       // §5.3, Algorithms 2-4.
  void ExhaustiveCompletion();      // Optional certification pass.

  // Validates lhs → a for every candidate right-hand side a at once,
  // returning the valid subset. Results are memoized per left-hand side as
  // (checked, valid) bit sets: validity is immutable and the phases
  // revisit the same candidates from different directions, so repeat
  // queries cost one hash look-up plus bit algebra. (An antichain-based
  // inference cache was tried and lost: superset queries on dense tries
  // cost more than the PLI checks they saved.) Candidates go through the
  // evidence probe, then the row probe, and only what both leave open
  // reaches the PLI. muds.fd_checks and the phase's `phase_checks` count
  // those PLI validations.
  ColumnSet CheckFds(const ColumnSet& lhs, const ColumnSet& candidates,
                     Counter* phase_checks) {
    RhsKnowledge& knowledge = check_memo_[lhs];
    ColumnSet unchecked = candidates.Difference(knowledge.checked);
    // Sampling-first: one batched evidence probe refutes every recorded
    // non-FD with this left-hand side at once — those candidates never
    // reach the PLI. Refuted entries are definite non-FDs, so recording
    // them as checked-and-invalid keeps the memo (and the negative
    // knowledge later harvested by the exhaustive completion) exact.
    if (!unchecked.Empty() && evidence_) {
      const ColumnSet refuted =
          evidence_->RefutedRhs(lhs).Intersect(unchecked);
      knowledge.checked = knowledge.checked.Union(refuted);
      unchecked = unchecked.Difference(refuted);
    }
    // Refute before intersecting; recorded exactly like evidence hits.
    if (!unchecked.Empty()) {
      const ColumnSet refuted = ProbeRefutedRhs(lhs, unchecked);
      knowledge.checked = knowledge.checked.Union(refuted);
      unchecked = unchecked.Difference(refuted);
    }
    if (!unchecked.Empty()) {
      const std::shared_ptr<const Pli> pli = cache_->Get(lhs);
      // Batched refinement: one probe-table pass validates every unchecked
      // right-hand side at once instead of one cluster walk per candidate.
      batch_columns_.clear();
      batch_indices_.clear();
      for (int a = unchecked.First(); a >= 0;
           a = unchecked.NextAtLeast(a + 1)) {
        batch_columns_.push_back(&relation_.GetColumn(a));
        batch_indices_.push_back(a);
      }
      const MudsCounters& counters = MudsCounters::Get();
      phase_checks->Add(static_cast<int64_t>(batch_indices_.size()));
      counters.fd_checks->Add(static_cast<int64_t>(batch_indices_.size()));
      counters.refines_all_batches->Increment();
      counters.refines_all_candidates->Add(
          static_cast<int64_t>(batch_indices_.size()));
      pli->RefinesAll(batch_columns_, &batch_valid_);
      for (size_t i = 0; i < batch_indices_.size(); ++i) {
        if (batch_valid_[i]) {
          knowledge.valid.Add(batch_indices_[i]);
        } else if (evidence_) {
          // Adaptive growth: the sampler missed this violation; feed a
          // violating pair back so sibling candidates get refuted free.
          evidence_->FeedBackFdViolation(
              *pli, relation_.GetColumn(batch_indices_[i]));
        }
      }
      knowledge.checked = knowledge.checked.Union(unchecked);
    }
    return candidates.Intersect(knowledge.valid);
  }

  // Refute before intersecting: when the cardinality bound proves `lhs`
  // non-unique, a bounded early-exit row scan (ProbeFdViolations) looks
  // for pairs that agree on `lhs` and differ on a candidate, with no PLI
  // built or looked up. Returns the refuted candidates, all definite
  // non-FDs; with sampling on, their witness pairs feed the evidence store
  // like a failed PLI check's would. Thread-safe. A lhs that may be unique
  // is not probed: its duplicates are rare, so a probe would mostly scan to
  // its cap for nothing.
  ColumnSet ProbeRefutedRhs(const ColumnSet& lhs,
                            const ColumnSet& candidates) {
    if (!CardinalityBoundRefutesUcc(relation_, lhs)) return ColumnSet();
    const MudsCounters& counters = MudsCounters::Get();
    counters.fd_probe_scans->Increment();
    std::vector<std::pair<RowId, RowId>> witnesses;
    const ColumnSet refuted = ProbeFdViolations(
        relation_, lhs, candidates, evidence_ ? &witnesses : nullptr);
    counters.fd_probe_refuted->Add(refuted.Count());
    for (const auto& [first, second] : witnesses) {
      evidence_->AddPair(first, second, /*fed_back=*/true);
    }
    return refuted;
  }

  bool CheckFd(const ColumnSet& lhs, int rhs, Counter* phase_checks) {
    return !CheckFds(lhs, ColumnSet::Single(rhs), phase_checks).Empty();
  }

  // §4.1: right-hand sides that can never form an FD with `lhs` because
  // both sides would lie inside one minimal UCC (rule 1). Memoized: the
  // same left-hand sides recur across the tasks of many minimal UCCs.
  ColumnSet ImpossibleColumns(const ColumnSet& lhs) {
    auto it = impossible_memo_.find(lhs);
    if (it != impossible_memo_.end()) return it->second;
    ColumnSet impossible = lhs;
    for (const ColumnSet& ucc : ucc_store_->SupersetsOf(lhs)) {
      impossible = impossible.Union(ucc);
    }
    impossible_memo_.emplace(lhs, impossible);
    return impossible;
  }

  // Memoized connector look-up (§5.1, Table 2).
  ColumnSet LookupConnector(const ColumnSet& connector) {
    MudsCounters::Get().connector_lookups->Increment();
    auto it = connector_memo_.find(connector);
    if (it != connector_memo_.end()) return it->second;
    const ColumnSet result = ucc_store_->Lookup(connector);
    connector_memo_.emplace(connector, result);
    return result;
  }

  // Per left-hand side: which right-hand sides were validated and which of
  // those held.
  struct RhsKnowledge {
    ColumnSet checked;
    ColumnSet valid;
  };

  // Validation memo owned by one parallel traversal task. Workers never
  // touch the shared `check_memo_` (writes would race); they memoize into
  // their own map and the results are merged after the pool drains.
  using TaskMemo = std::unordered_map<ColumnSet, RhsKnowledge, ColumnSetHash>;

  // Thread-safe FD check for the parallel phases: consults the shared memo
  // read-only (no other thread mutates it while a parallel phase runs),
  // then the task-local memo, and only then validates against the data
  // through the (thread-safe) PliCache. Validity is a property of the data,
  // so racing tasks that both validate the same pair agree on the answer —
  // only the check counters can differ across schedules.
  bool CheckFdParallel(const ColumnSet& lhs, int rhs, Counter* phase_checks,
                       TaskMemo* memo) {
    auto shared = check_memo_.find(lhs);
    if (shared != check_memo_.end() && shared->second.checked.Contains(rhs)) {
      return shared->second.valid.Contains(rhs);
    }
    RhsKnowledge& local = (*memo)[lhs];
    if (local.checked.Contains(rhs)) return local.valid.Contains(rhs);
    // Sampling-first: probe the (thread-safe) evidence store before
    // touching the PLI. A hit is a definite non-FD.
    if (evidence_ && evidence_->RefutesFd(lhs, rhs)) {
      local.checked.Add(rhs);
      return false;
    }
    if (!ProbeRefutedRhs(lhs, ColumnSet::Single(rhs)).Empty()) {
      local.checked.Add(rhs);
      return false;
    }
    phase_checks->Increment();
    MudsCounters::Get().fd_checks->Increment();
    const std::shared_ptr<const Pli> pli = cache_->Get(lhs);
    const bool holds = pli->Refines(relation_.GetColumn(rhs));
    if (!holds && evidence_) {
      evidence_->FeedBackFdViolation(*pli, relation_.GetColumn(rhs));
    }
    local.checked.Add(rhs);
    if (holds) local.valid.Add(rhs);
    return holds;
  }

  // Folds the task-local validation knowledge back into the shared memo
  // (so later sequential phases keep benefiting).
  void MergeTaskMemos(const std::vector<TaskMemo>& memos) {
    for (const TaskMemo& memo : memos) {
      for (const auto& [lhs, local] : memo) {
        RhsKnowledge& knowledge = check_memo_[lhs];
        knowledge.checked = knowledge.checked.Union(local.checked);
        knowledge.valid = knowledge.valid.Union(local.valid);
      }
    }
  }

  // Algorithm 3: maximal subsets of `lhs` that contain no minimal UCC.
  std::vector<ColumnSet> RemoveUccs(const ColumnSet& lhs);

  // Algorithm 4 on merged task levels. Returns true if new minimal FDs
  // were recorded.
  bool MinimizeTasks(TaskLevels* tasks, Counter* phase_checks);

  const Relation& relation_;
  const EngineConfig config_;
  const MudsOptions options_;
  MudsResult result_;

  std::optional<PliCache> cache_;
  // Sampled row-pair evidence (built only with config_.sampling on and
  // more than one row). Probes take a shared lock; feedback inserts take a
  // unique lock, so the parallel phases can consult it concurrently.
  std::unique_ptr<EvidenceStore> evidence_;
  std::vector<ColumnSet> uccs_;
  std::optional<UccStore> ucc_store_;
  FdStore fd_store_;
  ColumnSet active_;
  ColumnSet z_;  // Union of all minimal UCCs.
  std::unordered_map<ColumnSet, std::vector<ColumnSet>, ColumnSetHash>
      remove_uccs_memo_;
  std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash> impossible_memo_;
  std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash> connector_memo_;

  // Reduced lhs → right-hand sides already proposed to the shadowed
  // minimizer.
  std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash>
      dispatched_shadowed_;
  // newLhs → right-hand sides already expanded in earlier rounds.
  std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash> processed_shadowed_;
  std::unordered_map<ColumnSet, RhsKnowledge, ColumnSetHash> check_memo_;
  // The run's pool if it has workers; null runs every phase inline.
  ThreadPool* const pool_;
  // Scratch for the batched CheckFds (sequential phases only; the parallel
  // phases go through CheckFdParallel and never touch these).
  std::vector<const Column*> batch_columns_;
  std::vector<int> batch_indices_;
  std::vector<uint8_t> batch_valid_;
};

MudsResult MudsRunner::Run() {
  MudsCounters::Get();  // Register the muds.* metrics.
  RunSpider();
  // Eager registration: the sampling.* registry counters must exist (at
  // zero) even on runs with sampling disabled, so observability tooling
  // can rely on their presence.
  EvidenceStore::RegisterMetrics();
  if (config_.sampling.enabled() && relation_.NumRows() > 1) {
    MUDS_TRACE_SPAN(&result_.timings, "evidenceBuild");
    evidence_ = BuildSampledEvidence(relation_, &*cache_, config_.sampling);
  }
  RunDucc();

  if (relation_.NumRows() > 1) {
    // Pre-register the phases so the Figure 8 breakdown always lists them
    // in the paper's order, even when a phase ends up with no work.
    for (const char* phase :
         {"minimizeFDs", "calculateRZ", "generateShadowedTasks",
          "minimizeShadowedTasks"}) {
      result_.timings.Add(phase, 0);
    }
    {
      MUDS_TRACE_SPAN(&result_.timings, "minimizeFDs");
      MinimizeFdsFromUccs();
    }
    {
      MUDS_TRACE_SPAN(&result_.timings, "calculateRZ");
      CalculateRz();
    }
    if (options_.run_paper_shadowed_phase ||
        options_.completion == MudsOptions::Completion::kFixpoint) {
      DiscoverShadowedFds();
    }
    if (options_.completion == MudsOptions::Completion::kExhaustive) {
      MUDS_TRACE_SPAN(&result_.timings, "exhaustiveCompletion");
      ExhaustiveCompletion();
    }
  }

  result_.fds = ConstantColumnFds(relation_);
  for (const Fd& fd : fd_store_.MinimalFds()) result_.fds.push_back(fd);
  Canonicalize(&result_.fds);
  result_.uccs = uccs_;
  Canonicalize(&result_.uccs);
  return result_;
}

void MudsRunner::RunSpider() {
  MUDS_TRACE_SPAN(&result_.timings, "SPIDER");
  // The paper builds the PLIs in the same pass that feeds SPIDER (§5);
  // constructing the cache here mirrors that shared scan. SPIDER and the
  // PLI build read disjoint state, so with a parallel pool SPIDER runs on a
  // worker while the caller drives the per-column PLI construction.
  // With a spill directory configured, SPIDER merges disk-resident runs
  // instead of in-memory dictionaries (same INDs, bounded memory).
  const auto discover_inds = [this] {
    return Spider::Discover(relation_, config_.spill);
  };
  if (pool_ != nullptr) {
    std::future<std::vector<Ind>> inds = pool_->Submit(discover_inds);
    cache_.emplace(relation_, config_.pli_budget_bytes, pool_, config_.spill);
    result_.inds = inds.get();
  } else {
    result_.inds = discover_inds();
    cache_.emplace(relation_, config_.pli_budget_bytes, nullptr, config_.spill);
  }
  active_ = relation_.ActiveColumns();
}

void MudsRunner::RunDucc() {
  MUDS_TRACE_SPAN(&result_.timings, "DUCC");
  Ducc::Options ducc_options;
  ducc_options.seed = config_.seed;
  uccs_ = Ducc::Discover(relation_, &*cache_, ducc_options, evidence_.get());
  ucc_store_.emplace(uccs_, options_.use_prefix_tree);
  z_ = ColumnSet();
  for (const ColumnSet& ucc : uccs_) z_ = z_.Union(ucc);
}

void MudsRunner::MinimizeFdsFromUccs() {
  TaskLevels tasks;
  for (const ColumnSet& ucc : uccs_) {
    const ColumnSet rhs = z_.Difference(ucc);
    if (ucc.Empty()) continue;
    tasks.Add(ucc, ucc, rhs);
  }

  for (int size = tasks.MaxSize(); size >= 1; --size) {
    for (const auto& [key, rhs_set] : tasks.Level(size)) {
      const ColumnSet& m_ucc = key.first;
      const ColumnSet& lhs = key.second;
      ColumnSet current_rhs = rhs_set;
      for (int c = lhs.First(); c >= 0; c = lhs.NextAtLeast(c + 1)) {
        const ColumnSet subset = lhs.Without(c);
        if (subset.Empty()) continue;
        const ColumnSet connector = m_ucc.Difference(subset);
        ColumnSet potential = LookupConnector(connector);
        potential = potential.Difference(ImpossibleColumns(subset));
        const ColumnSet valid_rhs =
            CheckFds(subset, potential,
                     MudsCounters::Get().fd_checks_minimize);
        current_rhs = current_rhs.Difference(valid_rhs);
        if (!valid_rhs.Empty()) tasks.Add(m_ucc, subset, valid_rhs);
      }
      for (int a = current_rhs.First(); a >= 0;
           a = current_rhs.NextAtLeast(a + 1)) {
        fd_store_.Add(lhs, a);
      }
    }
  }
}

void MudsRunner::CalculateRz() {
  const ColumnSet rz = active_.Difference(z_);
  const MudsCounters& counters = MudsCounters::Get();
  if (pool_ == nullptr) {
    for (int a = rz.First(); a >= 0; a = rz.NextAtLeast(a + 1)) {
      MUDS_TRACE_SPAN("rzTraversal", RhsArgs(a));
      LatticeTraversal::Options traversal_options;
      traversal_options.seed =
          config_.seed * 7919 + static_cast<uint64_t>(a);
      // Key pruning: every minimal UCC determines `a` (a ∉ Z, so no UCC
      // contains it).
      traversal_options.known_positive = uccs_;
      LatticeTraversal traversal(
          active_.Without(a),
          [this, a, &counters](const ColumnSet& lhs) {
            return CheckFd(lhs, a, counters.fd_checks_rz);
          },
          traversal_options);
      for (const ColumnSet& lhs : traversal.Run()) fd_store_.Add(lhs, a);
      counters.rz_nodes_visited->Add(traversal.stats().predicate_calls);
      counters.rz_walk_steps->Add(traversal.stats().walk_steps);
    }
    return;
  }

  // Each right-hand side outside Z spans its own sub-lattice, seeded
  // independently — the traversals share nothing but the (thread-safe)
  // PliCache and the read-only check memo, so they run concurrently and
  // their results merge in right-hand-side order, making the discovered FD
  // set independent of scheduling.
  const std::vector<int> targets = rz.ToIndices();
  std::vector<std::vector<ColumnSet>> found(targets.size());
  std::vector<TaskMemo> memos(targets.size());
  counters.parallel_tasks->Add(static_cast<int64_t>(targets.size()));
  pool_->ParallelFor(0, static_cast<int64_t>(targets.size()), [&](int64_t i) {
    const int a = targets[static_cast<size_t>(i)];
    MUDS_TRACE_SPAN("rzTraversal", RhsArgs(a));
    LatticeTraversal::Options traversal_options;
    traversal_options.seed = config_.seed * 7919 + static_cast<uint64_t>(a);
    traversal_options.known_positive = uccs_;
    TaskMemo* memo = &memos[static_cast<size_t>(i)];
    LatticeTraversal traversal(
        active_.Without(a),
        [this, a, &counters, memo](const ColumnSet& lhs) {
          return CheckFdParallel(lhs, a, counters.fd_checks_rz, memo);
        },
        traversal_options);
    found[static_cast<size_t>(i)] = traversal.Run();
    counters.rz_nodes_visited->Add(traversal.stats().predicate_calls);
    counters.rz_walk_steps->Add(traversal.stats().walk_steps);
  });
  for (size_t i = 0; i < targets.size(); ++i) {
    for (const ColumnSet& lhs : found[i]) fd_store_.Add(lhs, targets[i]);
  }
  MergeTaskMemos(memos);
}

std::vector<ColumnSet> MudsRunner::RemoveUccs(const ColumnSet& lhs) {
  auto memo = remove_uccs_memo_.find(lhs);
  if (memo != remove_uccs_memo_.end()) return memo->second;

  const std::vector<ColumnSet> contained = ucc_store_->SubsetsOf(lhs);
  std::vector<ColumnSet> results;
  if (contained.empty()) {
    results = {lhs};
  } else if (options_.completion == MudsOptions::Completion::kExhaustive &&
             contained.size() > 32) {
    // Budget guard: enumerating the UCC-free reductions of a left-hand
    // side that swallows dozens of minimal UCCs is itself exponential.
    // Under the (default) exhaustive completion the shadowed phase is only
    // an accelerator, so skipping the reduction is sound — the
    // certification sweep will find whatever this would have proposed.
    // The paper-faithful kFixpoint mode never truncates.
  } else {
    // Algorithm 3 asks for the UCC-free reductions of `lhs`: subsets that
    // break every contained minimal UCC by removing one column per UCC.
    // The removal sets are exactly the minimal hitting sets of the
    // contained-UCC family, so the maximal UCC-free reductions are their
    // complements. (The naive one-column-per-UCC branch enumeration of the
    // pseudo-code revisits exponentially many duplicate states when a lhs
    // contains many UCCs.)
    for (const ColumnSet& hit :
         MinimalHittingSets(contained, ColumnSet::kMaxColumns)) {
      results.push_back(lhs.Difference(hit));
    }
  }
  remove_uccs_memo_.emplace(lhs, results);
  return results;
}

bool MudsRunner::MinimizeTasks(TaskLevels* tasks, Counter* phase_checks) {
  bool found_new = false;
  const ColumnSet no_context;  // Algorithm 4 tasks carry no mUCC context.
  for (int size = tasks->MaxSize(); size >= 1; --size) {
    for (const auto& [key, rhs_set] : tasks->Level(size)) {
      const ColumnSet& lhs = key.second;
      // Right-hand sides already determined by a stored subset of this lhs
      // cannot yield new minimal FDs here.
      ColumnSet pending = rhs_set;
      if (options_.shadowed_knowledge_pruning) {
        for (int a = pending.First(); a >= 0;
             a = pending.NextAtLeast(a + 1)) {
          if (fd_store_.Covers(lhs, a)) pending.Remove(a);
        }
        if (pending.Empty()) continue;
      }

      ColumnSet current_rhs = pending;
      for (int c = lhs.First(); c >= 0; c = lhs.NextAtLeast(c + 1)) {
        const ColumnSet subset = lhs.Without(c);
        if (subset.Empty()) continue;
        ColumnSet candidates = pending.Difference(subset);
        if (options_.shadowed_knowledge_pruning) {
          for (int a = candidates.First(); a >= 0;
               a = candidates.NextAtLeast(a + 1)) {
            if (fd_store_.Covers(subset, a)) {
              // Inferred from stored knowledge: subset → a holds, so
              // lhs → a is not minimal; the stored FD already covers the
              // subtree.
              current_rhs.Remove(a);
              candidates.Remove(a);
            }
          }
        }
        const ColumnSet valid_rhs = CheckFds(subset, candidates, phase_checks);
        current_rhs = current_rhs.Difference(valid_rhs);
        if (!valid_rhs.Empty()) tasks->Add(no_context, subset, valid_rhs);
      }
      for (int a = current_rhs.First(); a >= 0;
           a = current_rhs.NextAtLeast(a + 1)) {
        if (fd_store_.Add(lhs, a)) found_new = true;
      }
    }
  }
  return found_new;
}

void MudsRunner::DiscoverShadowedFds() {
  const MudsCounters& counters = MudsCounters::Get();
  for (;;) {
    counters.shadowed_rounds->Increment();
    TaskLevels tasks;
    bool generated = false;
    {
      MUDS_TRACE_SPAN(&result_.timings, "generateShadowedTasks");
      // Snapshot: Algorithm 2 iterates the FDs discovered so far. Many
      // entries extend to the same shadowed left-hand side, so the
      // candidate right-hand sides are merged per distinct newLhs before
      // any reduction or validation work happens.
      std::unordered_map<ColumnSet, ColumnSet, ColumnSetHash> pending;
      for (const auto& [lhs, rhs_set] : fd_store_.entries()) {
        // Shadowed columns: right-hand sides of stored FDs whose left-hand
        // side (the connector) is a subset of this lhs — i.e. exactly the
        // columns the store's knowledge derives from subsets of lhs.
        ColumnSet shadowed;
        for (int a = active_.First(); a >= 0; a = active_.NextAtLeast(a + 1)) {
          if (!lhs.Contains(a) && fd_store_.Covers(lhs, a)) shadowed.Add(a);
        }
        if (shadowed.Empty()) continue;
        const ColumnSet new_lhs = lhs.Union(shadowed);
        pending[new_lhs] = pending[new_lhs].Union(rhs_set);
      }
      for (const auto& [new_lhs, merged_rhs] : pending) {
        // Only the right-hand sides not handled in an earlier round are
        // new work for this newLhs.
        ColumnSet& done = processed_shadowed_[new_lhs];
        const ColumnSet fresh_rhs = merged_rhs.Difference(done);
        if (fresh_rhs.Empty()) continue;
        done = done.Union(fresh_rhs);
        for (const ColumnSet& reduced : RemoveUccs(new_lhs)) {
          // Validate immediately (§6.4): only FDs that actually hold become
          // minimization tasks. Right-hand sides already determined by a
          // stored subset of the reduced lhs are skipped — re-minimizing
          // them can only rediscover known FDs.
          // Each (reduced, a) candidate is dispatched once per run —
          // validity is a property of the data, not of the entry that
          // proposed it.
          ColumnSet& dispatched = dispatched_shadowed_[reduced];
          ColumnSet candidates =
              fresh_rhs.Difference(reduced).Difference(dispatched);
          dispatched = dispatched.Union(candidates);
          if (options_.shadowed_knowledge_pruning) {
            for (int a = candidates.First(); a >= 0;
                 a = candidates.NextAtLeast(a + 1)) {
              if (fd_store_.Covers(reduced, a)) candidates.Remove(a);
            }
          }
          const ColumnSet valid =
              CheckFds(reduced, candidates, counters.fd_checks_shadowed);
          if (valid.Empty()) continue;
          tasks.Add(ColumnSet(), reduced, valid);
          counters.shadowed_tasks->Increment();
          generated = true;
        }
      }
    }
    if (!generated) break;
    bool found_new;
    {
      MUDS_TRACE_SPAN(&result_.timings, "minimizeShadowedTasks");
      found_new = MinimizeTasks(&tasks, counters.fd_checks_shadowed);
    }
    // Fixpoint iteration (DESIGN.md): new FDs can expose new shadowed
    // columns, so repeat until the store stops growing.
    if (!found_new) break;
  }
}

void MudsRunner::ExhaustiveCompletion() {
  // Everything the earlier phases validated — positively or negatively —
  // seeds the per-right-hand-side traversals, so they only explore what
  // phases 1-3 genuinely left open.
  std::map<int, std::vector<ColumnSet>> known_positive;
  std::map<int, std::vector<ColumnSet>> known_negative;
  for (const auto& [lhs, knowledge] : check_memo_) {
    for (int a = knowledge.checked.First(); a >= 0;
         a = knowledge.checked.NextAtLeast(a + 1)) {
      (knowledge.valid.Contains(a) ? known_positive
                                   : known_negative)[a]
          .push_back(lhs);
    }
  }

  const MudsCounters& counters = MudsCounters::Get();
  if (pool_ == nullptr) {
    for (int a = z_.First(); a >= 0; a = z_.NextAtLeast(a + 1)) {
      MUDS_TRACE_SPAN("completionTraversal", RhsArgs(a));
      LatticeTraversal::Options traversal_options;
      traversal_options.seed =
          config_.seed * 104729 + static_cast<uint64_t>(a);
      traversal_options.known_positive = known_positive[a];
      traversal_options.known_negative = known_negative[a];
      for (const ColumnSet& lhs : fd_store_.MinimalLhsFor(a)) {
        traversal_options.known_positive.push_back(lhs);
      }
      // Key pruning: every minimal UCC not containing `a` determines it.
      for (const ColumnSet& ucc : uccs_) {
        if (!ucc.Contains(a)) traversal_options.known_positive.push_back(ucc);
      }
      LatticeTraversal traversal(
          active_.Without(a),
          [this, a, &counters](const ColumnSet& lhs) {
            return CheckFd(lhs, a, counters.fd_checks_shadowed);
          },
          traversal_options);
      fd_store_.ReplaceMinimal(a, traversal.Run());
      counters.completion_nodes_visited->Add(
          traversal.stats().predicate_calls);
      counters.completion_walk_steps->Add(traversal.stats().walk_steps);
    }
    return;
  }

  // Parallel path. The traversal for right-hand side `a` depends only on
  // the pre-phase knowledge snapshotted above (ReplaceMinimal for b ≠ a
  // never changes MinimalLhsFor(a)), so the per-RHS options are prepared
  // sequentially, the traversals run concurrently, and the store is
  // updated in right-hand-side order afterwards — same answer as the
  // sequential loop.
  const std::vector<int> targets = z_.ToIndices();
  std::vector<LatticeTraversal::Options> per_rhs_options(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const int a = targets[i];
    LatticeTraversal::Options& traversal_options = per_rhs_options[i];
    traversal_options.seed =
        config_.seed * 104729 + static_cast<uint64_t>(a);
    traversal_options.known_positive = known_positive[a];
    traversal_options.known_negative = known_negative[a];
    for (const ColumnSet& lhs : fd_store_.MinimalLhsFor(a)) {
      traversal_options.known_positive.push_back(lhs);
    }
    for (const ColumnSet& ucc : uccs_) {
      if (!ucc.Contains(a)) traversal_options.known_positive.push_back(ucc);
    }
  }
  std::vector<std::vector<ColumnSet>> minimal(targets.size());
  std::vector<TaskMemo> memos(targets.size());
  counters.parallel_tasks->Add(static_cast<int64_t>(targets.size()));
  pool_->ParallelFor(0, static_cast<int64_t>(targets.size()), [&](int64_t i) {
    const int a = targets[static_cast<size_t>(i)];
    MUDS_TRACE_SPAN("completionTraversal", RhsArgs(a));
    TaskMemo* memo = &memos[static_cast<size_t>(i)];
    LatticeTraversal traversal(
        active_.Without(a),
        [this, a, &counters, memo](const ColumnSet& lhs) {
          return CheckFdParallel(lhs, a, counters.fd_checks_shadowed, memo);
        },
        std::move(per_rhs_options[static_cast<size_t>(i)]));
    minimal[static_cast<size_t>(i)] = traversal.Run();
    counters.completion_nodes_visited->Add(
        traversal.stats().predicate_calls);
    counters.completion_walk_steps->Add(traversal.stats().walk_steps);
  });
  for (size_t i = 0; i < targets.size(); ++i) {
    fd_store_.ReplaceMinimal(targets[i], minimal[i]);
  }
  MergeTaskMemos(memos);
}

}  // namespace

MudsResult Muds::Run(const Relation& relation, const EngineConfig& config,
                     const MudsOptions& options, ThreadPool* pool) {
  return MudsRunner(relation, config, options, pool).Run();
}

}  // namespace muds
