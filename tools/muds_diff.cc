// muds_diff — differential correctness driver.
//
// Generates seeded adversarial relations (workload/generators.h), computes
// the ground truth with the brute-force reference profiler
// (testing/reference.h), then runs every engine — MUDS, Holistic FUN, the
// sequential SPIDER+DUCC+FUN baseline, and TANE — across the full
// {threads: 1,2,8} x {pli-budget: tiny,unlimited} x {io: stream,buffered}
// configuration matrix (io=stream parses with the reference CSV reader and
// profiles the relation) — plus a forced-scalar SIMD axis {threads: 1,8}
// — and a spill axis (tiny PLI budget + disk spill tier + external
// sort-merge SPIDER, {threads: 1,8}) — and a sampling axis ({1K,64K}
// sampled pairs x {threads: 1,8} x {default, tiny budget + spill},
// asserting the refutation-only invariant: result sets are bit-identical
// at every --sample-pairs setting) — and diffs all result sets against
// the oracle. kAuto (the column-count rule picking MUDS or HFUN) is
// diffed too, at {threads: 1,8} x {budget: unlimited, tiny+spill}. Every
// engine run goes through the CSV surface (CsvWriter -> a CSV reader), so
// both readers are part of the contract under test.
//
// On a mismatch the driver shrinks the instance (drop columns, then chop
// row chunks, while the mismatch persists) and prints a reproducer: the
// seed, the generator parameters, the failing engine + configuration, the
// result diff, and the minimized CSV dump.
//
// An append axis exercises both append paths: each seed's relation is
// split into a base slice plus --append-batches row batches, every slice
// goes through the CSV surface, and for every row prefix both the one-shot
// ProfileCsvStringWithAppends (what muds_serve runs) and the maintained
// sets after each IncrementalProfiler::Append must equal the oracle's
// from-scratch profile of the prefix — across {threads: 1,8} x {budget:
// unlimited, tiny+spill} x {sampling: off, 1K pairs}.
//
// Usage:
//   muds_diff [--seeds=N] [--start-seed=N] [--max-cols=N] [--max-rows=N]
//             [--append-batches=N] [--append-only] [--verbose] [--self-test]
//
// Exit status: 0 when every run matches the oracle (or, under --self-test,
// when every injected corruption is caught), 1 on usage errors or missed
// corruptions, 2 on mismatches.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/profiler.h"
#include "data/csv.h"
#include "data/metadata.h"
#include "data/preprocess.h"
#include "data/relation.h"
#include "fd/tane.h"
#include "research/incremental.h"
#include "testing/reference.h"
#include "testing/reference_csv.h"
#include "workload/generators.h"

namespace {

using namespace muds;

struct CliOptions {
  int seeds = 25;
  int start_seed = 1;
  int max_cols = 10;
  int64_t max_rows = 2000;
  int append_batches = 3;  // 0 disables the append axis.
  bool append_only = false;
  bool verbose = false;
  bool self_test = false;
};

enum class Engine { kMuds, kHolisticFun, kBaseline, kAuto, kTane };

const char* EngineLabel(Engine engine) {
  switch (engine) {
    case Engine::kMuds: return "muds";
    case Engine::kHolisticFun: return "hfun";
    case Engine::kBaseline: return "baseline";
    case Engine::kAuto: return "auto";
    case Engine::kTane: return "tane";
  }
  return "?";
}

constexpr size_t kTinyBudgetBytes = 32 * 1024;

struct DiffConfig {
  int threads = 1;
  size_t pli_budget_bytes = 0;  // 0 = unlimited
  // io=stream parses with the reference reader (testing/reference_csv.h)
  // and profiles the relation; io=buffered runs the engines' CSV entry
  // points on the parallel ingest engine.
  bool stream_io = false;
  bool force_scalar_simd = false;
  bool spill = false;
  int64_t sample_pairs = 0;  // 0 = sampling disabled

  std::string Label() const {
    std::string out = "threads=" + std::to_string(threads);
    out += pli_budget_bytes == 0 ? " budget=unlimited" : " budget=tiny";
    out += stream_io ? " io=stream" : " io=buffered";
    if (force_scalar_simd) out += " simd=scalar";
    if (spill) out += " spill=on";
    if (sample_pairs != 0) {
      out += " sample-pairs=" + std::to_string(sample_pairs);
    }
    return out;
  }
};

std::vector<DiffConfig> ConfigMatrix() {
  std::vector<DiffConfig> configs;
  for (int threads : {1, 2, 8}) {
    for (size_t budget : {kTinyBudgetBytes, size_t{0}}) {
      for (bool stream_io : {true, false}) {
        configs.push_back(DiffConfig{threads, budget, stream_io});
      }
    }
  }
  for (int threads : {1, 8}) {
    // SIMD axis: the runtime scalar kill switch, single- and
    // multi-threaded. The native and scalar kernels must produce identical
    // result sets (the native level runs in every other configuration).
    DiffConfig scalar;
    scalar.threads = threads;
    scalar.force_scalar_simd = true;
    configs.push_back(scalar);
    // Spill axis: tiny PLI budget plus the disk tier, so evictions demote
    // to the spill file and cache probes reload from it, and SPIDER runs
    // its external sort-merge. The out-of-core path must be invisible in
    // the result sets.
    DiffConfig spill;
    spill.threads = threads;
    spill.pli_budget_bytes = kTinyBudgetBytes;
    spill.spill = true;
    configs.push_back(spill);
  }
  // Sampling axis: evidence-store pre-validation at a small and a large
  // pair budget, sequential and parallel, with and without memory pressure
  // (tiny budget + spill). Sampling is refutation-only, so every one of
  // these runs must produce exactly the oracle's result sets.
  for (int64_t pairs : {int64_t{1024}, int64_t{65536}}) {
    for (int threads : {1, 8}) {
      DiffConfig config;
      config.threads = threads;
      config.sample_pairs = pairs;
      configs.push_back(config);
      DiffConfig tiny_spill = config;
      tiny_spill.pli_budget_bytes = kTinyBudgetBytes;
      tiny_spill.spill = true;
      configs.push_back(tiny_spill);
    }
  }
  return configs;
}

// One engine run's answer. TANE discovers FDs and UCCs only, so `has_inds`
// tells the differ which sets take part in the comparison.
struct EngineAnswer {
  bool ok = false;
  std::string error;
  bool has_inds = true;
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;
};

// Flips the SIMD kill switch for the duration of one engine run; the
// switch is process-global, so it must be restored on every exit path.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : on_(on) {
    if (on_) simd::ForceScalar(true);
  }
  ~ScopedForceScalar() {
    if (on_) simd::ForceScalar(false);
  }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool on_;
};

EngineAnswer RunEngine(Engine engine, const std::string& csv_text,
                       const DiffConfig& config, uint64_t seed) {
  EngineAnswer answer;
  ScopedForceScalar scalar_guard(config.force_scalar_simd);
  CsvOptions csv;
  csv.num_threads = config.threads;
  const auto parse = [&]() {
    return config.stream_io ? ReferenceCsvReader::ReadString(csv_text, csv)
                            : CsvReader::ReadString(csv_text, csv);
  };
  if (engine == Engine::kTane) {
    Result<Relation> parsed = parse();
    if (!parsed.ok()) {
      answer.error = parsed.status().ToString();
      return answer;
    }
    FdDiscoveryResult tane =
        Tane::Discover(DeduplicateRows(parsed.value()).relation);
    answer.ok = true;
    answer.has_inds = false;
    answer.uccs = std::move(tane.uccs);
    answer.fds = std::move(tane.fds);
    return answer;
  }

  ProfileOptions options;
  switch (engine) {
    case Engine::kMuds: options.algorithm = Algorithm::kMuds; break;
    case Engine::kHolisticFun: options.algorithm = Algorithm::kHolisticFun; break;
    case Engine::kBaseline: options.algorithm = Algorithm::kBaseline; break;
    case Engine::kAuto: options.algorithm = Algorithm::kAuto; break;
    case Engine::kTane: break;  // handled above
  }
  options.seed = seed;
  options.num_threads = config.threads;
  options.pli_budget_bytes = config.pli_budget_bytes;
  if (config.spill) {
    options.spill.dir = std::filesystem::temp_directory_path().string();
  }
  options.sampling.pairs = config.sample_pairs;
  options.sampling.seed = seed;
  options.csv = csv;
  const auto profile = [&]() -> Result<ProfilingResult> {
    if (!config.stream_io) return ProfileCsvString(csv_text, options);
    Result<Relation> parsed = parse();
    if (!parsed.ok()) return parsed.status();
    return ProfileRelation(parsed.value(), options);
  };
  Result<ProfilingResult> result = profile();
  if (!result.ok()) {
    answer.error = result.status().ToString();
    return answer;
  }
  answer.ok = true;
  answer.inds = result.value().inds;
  answer.uccs = result.value().uccs;
  answer.fds = result.value().fds;
  return answer;
}

// Renders the symmetric difference of two canonical dependency vectors,
// a few entries per direction.
template <typename T, typename Render>
void DescribeSetDiff(const char* what, const std::vector<T>& expected,
                     const std::vector<T>& actual, const Render& render,
                     std::string* out) {
  std::vector<T> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  if (missing.empty() && extra.empty()) return;
  *out += "  ";
  *out += what;
  *out += ": expected " + std::to_string(expected.size()) + ", got " +
          std::to_string(actual.size()) + "\n";
  const auto render_some = [&](const char* tag, const std::vector<T>& items) {
    if (items.empty()) return;
    *out += "    ";
    *out += tag;
    size_t shown = 0;
    for (const T& item : items) {
      if (shown++ == 5) {
        *out += " ... (+" + std::to_string(items.size() - 5) + ")";
        break;
      }
      *out += " " + render(item);
    }
    *out += "\n";
  };
  render_some("missing:", missing);
  render_some("extra:  ", extra);
}

// Compares one engine answer with the oracle; returns a human-readable
// description of the differences ("" = match).
std::string DiffAgainstOracle(const EngineAnswer& answer,
                              const ReferenceResult& oracle,
                              const std::vector<std::string>& names) {
  if (!answer.ok) return "  engine failed: " + answer.error + "\n";
  std::string diff;
  if (answer.has_inds) {
    DescribeSetDiff("inds", oracle.inds, answer.inds,
                    [&](const Ind& ind) { return ToString(ind, names); },
                    &diff);
  }
  DescribeSetDiff("uccs", oracle.uccs, answer.uccs,
                  [&](const ColumnSet& s) { return s.ToString(names); },
                  &diff);
  DescribeSetDiff("fds", oracle.fds, answer.fds,
                  [&](const Fd& fd) { return ToString(fd, names); }, &diff);
  return diff;
}

bool Mismatches(Engine engine, const Relation& relation,
                const DiffConfig& config, uint64_t seed) {
  const std::string csv_text = CsvWriter::ToString(relation);
  const ReferenceResult oracle = ReferenceProfiler::Profile(relation);
  const EngineAnswer answer = RunEngine(engine, csv_text, config, seed);
  return !DiffAgainstOracle(answer, oracle, relation.ColumnNames()).empty();
}

// Shrinks `relation` while the engine still disagrees with the oracle:
// first drops columns one at a time to a fixpoint, then removes row chunks
// of halving sizes (ddmin-style). Bounded by `max_runs` engine reruns.
Relation MinimizeReproducer(Engine engine, Relation relation,
                            const DiffConfig& config, uint64_t seed,
                            int max_runs = 400) {
  int runs = 0;
  // Column pass.
  bool shrunk = true;
  while (shrunk && relation.NumColumns() > 1 && runs < max_runs) {
    shrunk = false;
    for (int drop = 0; drop < relation.NumColumns(); ++drop) {
      std::vector<int> keep;
      for (int c = 0; c < relation.NumColumns(); ++c) {
        if (c != drop) keep.push_back(c);
      }
      Relation candidate = relation.SelectColumns(keep);
      ++runs;
      if (Mismatches(engine, candidate, config, seed)) {
        relation = std::move(candidate);
        shrunk = true;
        break;
      }
      if (runs >= max_runs) break;
    }
  }
  // Row pass: try removing contiguous chunks, halving the chunk size.
  for (RowId chunk = relation.NumRows() / 2; chunk >= 1; chunk /= 2) {
    bool removed = true;
    while (removed && runs < max_runs) {
      removed = false;
      for (RowId start = 0; start + chunk <= relation.NumRows();
           start += chunk) {
        std::vector<RowId> keep;
        for (RowId r = 0; r < relation.NumRows(); ++r) {
          if (r < start || r >= start + chunk) keep.push_back(r);
        }
        if (keep.empty()) continue;
        Relation candidate = relation.SelectRows(keep);
        ++runs;
        if (Mismatches(engine, candidate, config, seed)) {
          relation = std::move(candidate);
          removed = true;
          break;
        }
        if (runs >= max_runs) break;
      }
    }
  }
  return relation;
}

void PrintReproducer(Engine engine, const DiffConfig& config,
                     const AdversarialParams& params, int seed,
                     const CliOptions& cli, const Relation& minimized,
                     const std::string& diff) {
  std::fprintf(stderr,
               "MISMATCH engine=%s %s\n"
               "  generator: %s\n"
               "  reproduce: muds_diff --start-seed=%d --seeds=1 "
               "--max-cols=%d --max-rows=%lld\n%s",
               EngineLabel(engine), config.Label().c_str(),
               params.ToString().c_str(), seed, cli.max_cols,
               static_cast<long long>(cli.max_rows), diff.c_str());
  std::fprintf(stderr, "  minimized CSV (%d cols x %d rows):\n",
               minimized.NumColumns(), minimized.NumRows());
  const std::string csv = CsvWriter::ToString(minimized);
  std::fputs(csv.c_str(), stderr);
  std::fputs("\n", stderr);
}

// Whether `engine` runs under `config`. TANE has no thread/budget/
// sampling knobs, so it runs once per io mode at the native SIMD level.
// kAuto only dispatches to the MUDS and HFUN runs the matrix already
// covers, so it runs at threads 1 and 8, each with an unlimited budget and
// with a tiny budget + spill.
bool Runs(Engine engine, const DiffConfig& config) {
  const bool plain = !config.force_scalar_simd && config.sample_pairs == 0;
  switch (engine) {
    case Engine::kTane:
      return plain && config.threads == 1 && config.pli_budget_bytes == 0 &&
             !config.spill;
    case Engine::kAuto:
      return plain && config.threads != 2 && !config.stream_io &&
             config.spill == (config.pli_budget_bytes != 0);
    default:
      return true;
  }
}

// Runs the full engine x config matrix for one seed, adding the engine runs
// to `*total_runs`. Returns the number of mismatching runs (each already
// reported + minimized).
int RunSeed(int seed, const CliOptions& cli,
            const std::vector<DiffConfig>& configs, int* total_runs) {
  const AdversarialParams params =
      SampleAdversarialParams(static_cast<uint64_t>(seed), cli.max_cols,
                              cli.max_rows);
  const Relation relation = MakeAdversarial(params);
  const ReferenceResult oracle = ReferenceProfiler::Profile(relation);
  const std::string csv_text = CsvWriter::ToString(relation);
  if (cli.verbose) {
    std::fprintf(stderr,
                 "seed %d: %s -> %zu inds, %zu uccs, %zu fds\n", seed,
                 params.ToString().c_str(), oracle.inds.size(),
                 oracle.uccs.size(), oracle.fds.size());
  }

  int mismatches = 0;
  const Engine engines[] = {Engine::kMuds, Engine::kHolisticFun,
                            Engine::kBaseline, Engine::kAuto, Engine::kTane};
  for (Engine engine : engines) {
    for (const DiffConfig& config : configs) {
      if (!Runs(engine, config)) continue;
      ++*total_runs;
      const EngineAnswer answer = RunEngine(
          engine, csv_text, config, static_cast<uint64_t>(seed) + 17);
      const std::string diff =
          DiffAgainstOracle(answer, oracle, relation.ColumnNames());
      if (diff.empty()) continue;
      ++mismatches;
      const Relation minimized = MinimizeReproducer(
          engine, relation, config, static_cast<uint64_t>(seed) + 17);
      PrintReproducer(engine, config, params, seed, cli, minimized, diff);
    }
  }
  return mismatches;
}

// The append-axis configurations: the thread and memory-pressure extremes.
// Incremental maintenance must be invisible in the result sets for every
// thread count and under eviction + spill of the PLIs it patches.
std::vector<DiffConfig> AppendConfigMatrix() {
  std::vector<DiffConfig> configs;
  for (int threads : {1, 8}) {
    DiffConfig unlimited;
    unlimited.threads = threads;
    configs.push_back(unlimited);
    DiffConfig tiny_spill;
    tiny_spill.threads = threads;
    tiny_spill.pli_budget_bytes = kTinyBudgetBytes;
    tiny_spill.spill = true;
    configs.push_back(tiny_spill);
    // Sampled maintenance: the evidence store persists across batches and
    // must stay invisible in the maintained sets.
    DiffConfig sampled = unlimited;
    sampled.sample_pairs = 1024;
    configs.push_back(sampled);
    DiffConfig sampled_spill = tiny_spill;
    sampled_spill.sample_pairs = 1024;
    configs.push_back(sampled_spill);
  }
  return configs;
}

// Runs the append axis for one seed: split the generated relation into a
// base slice plus `cli.append_batches` row batches and, for every row
// prefix, diff two answers against the oracle's from-scratch profile of
// that prefix: the one-shot ProfileCsvStringWithAppends of the base plus
// the prefix's batches, and an IncrementalProfiler fed the batches one
// Append at a time. Returns the number of mismatching (path, config,
// batch) runs; `total_runs` counts every comparison performed.
int RunAppendSeed(int seed, const CliOptions& cli,
                  const std::vector<DiffConfig>& configs, int* total_runs) {
  const AdversarialParams params =
      SampleAdversarialParams(static_cast<uint64_t>(seed), cli.max_cols,
                              cli.max_rows);
  const Relation relation = MakeAdversarial(params);
  const int batches = cli.append_batches;
  if (relation.NumRows() < static_cast<RowId>(batches + 1)) return 0;

  // Base keeps ~40% of the rows; the rest splits into equal batches (the
  // last one takes the remainder). Every slice and every prefix keeps the
  // original row order, so the prefix oracle is well-defined.
  const RowId num_rows = relation.NumRows();
  const RowId base_rows =
      std::max<RowId>(1, static_cast<RowId>((num_rows * 2) / 5));
  const RowId per_batch =
      std::max<RowId>(1, (num_rows - base_rows) / static_cast<RowId>(batches));
  std::vector<RowId> cuts;  // Prefix length after the base and each batch.
  cuts.push_back(base_rows);
  for (int b = 1; b < batches; ++b) {
    cuts.push_back(std::min<RowId>(num_rows, base_rows + per_batch * b));
  }
  cuts.push_back(num_rows);

  const auto slice_rows = [&](RowId begin, RowId end) {
    std::vector<RowId> rows;
    rows.reserve(static_cast<size_t>(end - begin));
    for (RowId r = begin; r < end; ++r) rows.push_back(r);
    return relation.SelectRows(rows);
  };

  // Prefix oracles are shared by every configuration.
  std::vector<ReferenceResult> oracles;
  oracles.reserve(cuts.size() - 1);
  for (size_t i = 1; i < cuts.size(); ++i) {
    oracles.push_back(ReferenceProfiler::Profile(slice_rows(0, cuts[i])));
  }
  if (cli.verbose) {
    std::fprintf(stderr, "seed %d append: %s -> base %d rows + %zu batches\n",
                 seed, params.ToString().c_str(),
                 static_cast<int>(base_rows), cuts.size() - 1);
  }

  // The CSV surface: the base with its header, every batch both with a
  // header (IncrementalProfiler parses it on its own) and headerless (the
  // blob ProfileCsvStringWithAppends takes, as muds_serve sends it). A
  // 0-row slice serializes to exactly the header.
  const std::string base_csv = CsvWriter::ToString(slice_rows(0, cuts[0]));
  const size_t header_bytes = CsvWriter::ToString(slice_rows(0, 0)).size();
  std::vector<std::string> batch_csvs;
  std::vector<std::string> headerless_batches;
  for (size_t batch = 1; batch < cuts.size(); ++batch) {
    batch_csvs.push_back(
        CsvWriter::ToString(slice_rows(cuts[batch - 1], cuts[batch])));
    headerless_batches.push_back(batch_csvs.back().substr(header_bytes));
  }

  int mismatches = 0;
  // Reports a mismatch after `batch` of the (`path`, `config`) run.
  const auto report = [&](const char* path, const DiffConfig& config,
                          size_t batch, const std::string& diff) {
    ++mismatches;
    std::fprintf(stderr,
                 "APPEND MISMATCH seed=%d %s %s batch=%zu/%zu (prefix %d "
                 "rows)\n  generator: %s\n  reproduce: muds_diff "
                 "--start-seed=%d --seeds=1 --max-cols=%d --max-rows=%lld "
                 "--append-batches=%d --append-only\n%s",
                 seed, path, config.Label().c_str(), batch, cuts.size() - 1,
                 static_cast<int>(cuts[batch]), params.ToString().c_str(),
                 seed, cli.max_cols, static_cast<long long>(cli.max_rows),
                 cli.append_batches, diff.c_str());
  };
  for (const DiffConfig& config : configs) {
    CsvOptions csv;
    csv.num_threads = config.threads;
    ProfileOptions options;
    options.seed = static_cast<uint64_t>(seed) + 17;
    options.num_threads = config.threads;
    options.pli_budget_bytes = config.pli_budget_bytes;
    if (config.spill) {
      options.spill.dir = std::filesystem::temp_directory_path().string();
    }
    options.sampling.pairs = config.sample_pairs;
    options.sampling.seed = static_cast<uint64_t>(seed) + 17;
    options.csv = csv;

    // The one-shot path muds_serve runs: base plus every batch prefix,
    // grown and profiled once per prefix.
    for (size_t batch = 1; batch < cuts.size(); ++batch) {
      ++*total_runs;
      const std::vector<std::string> prefix(
          headerless_batches.begin(),
          headerless_batches.begin() + static_cast<std::ptrdiff_t>(batch));
      const Result<ProfilingResult> grown =
          ProfileCsvStringWithAppends(base_csv, prefix, options);
      std::string diff;
      if (!grown.ok()) {
        diff = "  one-shot append failed: " + grown.status().ToString() +
               "\n";
      } else {
        EngineAnswer answer;
        answer.ok = true;
        answer.inds = grown.value().inds;
        answer.uccs = grown.value().uccs;
        answer.fds = grown.value().fds;
        diff = DiffAgainstOracle(answer, oracles[batch - 1],
                                 relation.ColumnNames());
      }
      if (!diff.empty()) report("one-shot", config, batch, diff);
    }

    // The maintained state IncrementalProfiler keeps across batches.
    Result<Relation> base = CsvReader::ReadString(base_csv, csv);
    if (!base.ok()) {
      std::fprintf(stderr, "APPEND MISMATCH seed=%d %s: base parse: %s\n",
                   seed, config.Label().c_str(),
                   base.status().ToString().c_str());
      ++mismatches;
      continue;
    }
    IncrementalProfiler profiler(base.value(), options);

    for (size_t batch = 1; batch < cuts.size(); ++batch) {
      ++*total_runs;
      Result<Relation> parsed =
          CsvReader::ReadString(batch_csvs[batch - 1], csv);
      std::string diff;
      if (!parsed.ok()) {
        diff = "  batch parse failed: " + parsed.status().ToString() + "\n";
      } else {
        const Status appended = profiler.Append(parsed.value());
        if (!appended.ok()) {
          diff = "  Append failed: " + appended.ToString() + "\n";
        } else {
          EngineAnswer answer;
          answer.ok = true;
          answer.inds = profiler.inds();
          answer.uccs = profiler.uccs();
          answer.fds = profiler.fds();
          diff = DiffAgainstOracle(answer, oracles[batch - 1],
                                   relation.ColumnNames());
        }
      }
      if (diff.empty()) continue;
      report("incremental", config, batch, diff);
      break;  // Later batches of this run inherit the corrupted state.
    }
  }
  return mismatches;
}

// --self-test: corrupt a correct engine answer in the three ways a real
// minimality bug would (dropped FD, non-minimal FD, dropped UCC) and check
// the differ flags each one — so the harness itself cannot rot silently.
int SelfTest(const CliOptions& cli) {
  const AdversarialParams params = SampleAdversarialParams(
      7, std::min(cli.max_cols, 7), std::min<int64_t>(cli.max_rows, 200));
  const Relation relation = MakeAdversarial(params);
  const ReferenceResult oracle = ReferenceProfiler::Profile(relation);
  const std::string csv_text = CsvWriter::ToString(relation);
  const DiffConfig config;
  EngineAnswer honest =
      RunEngine(Engine::kMuds, csv_text, config, /*seed=*/1);
  if (!DiffAgainstOracle(honest, oracle, relation.ColumnNames()).empty()) {
    std::fprintf(stderr, "self-test: honest engine run mismatched oracle\n");
    return 1;
  }
  int missed = 0;
  const auto expect_flagged = [&](const char* what, EngineAnswer corrupted) {
    Canonicalize(&corrupted.fds);
    Canonicalize(&corrupted.uccs);
    const std::string diff =
        DiffAgainstOracle(corrupted, oracle, relation.ColumnNames());
    if (diff.empty()) {
      std::fprintf(stderr, "self-test: %s NOT caught\n", what);
      ++missed;
    } else if (cli.verbose) {
      std::fprintf(stderr, "self-test: %s caught:\n%s", what, diff.c_str());
    }
  };

  if (!honest.fds.empty()) {
    EngineAnswer dropped = honest;
    dropped.fds.pop_back();
    expect_flagged("dropped FD", std::move(dropped));

    // A non-minimal FD: widen some minimal lhs by one fresh column. Every
    // superset of a valid lhs is valid, so only the minimality contract —
    // the one an aggressive pruning rewrite would break — flags it.
    EngineAnswer widened = honest;
    for (Fd& fd : widened.fds) {
      bool grew = false;
      for (int c = 0; c < relation.NumColumns() && !grew; ++c) {
        if (c != fd.rhs && !fd.lhs.Contains(c)) {
          fd.lhs.Add(c);
          grew = true;
        }
      }
      if (grew) break;
    }
    if (widened.fds != honest.fds) {
      expect_flagged("non-minimal FD", std::move(widened));
    }
  }
  if (!honest.uccs.empty()) {
    EngineAnswer dropped = honest;
    dropped.uccs.pop_back();
    expect_flagged("dropped UCC", std::move(dropped));
  }
  if (missed == 0) {
    std::fprintf(stderr, "self-test: all injected corruptions caught\n");
  }
  return missed == 0 ? 0 : 1;
}

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: muds_diff [--seeds=N] [--start-seed=N] [--max-cols=N]\n"
               "                 [--max-rows=N] [--append-batches=N]\n"
               "                 [--append-only] [--verbose] [--self-test]\n");
}

bool ParseIntFlag(const std::string& arg, const char* prefix, long long* out) {
  const size_t len = std::strlen(prefix);
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  const long long value = std::strtoll(arg.c_str() + len, &end, 10);
  if (end == arg.c_str() + len || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    } else if (ParseIntFlag(arg, "--seeds=", &value) && value >= 1) {
      cli->seeds = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--start-seed=", &value) && value >= 0) {
      cli->start_seed = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--max-cols=", &value) && value >= 2 &&
               value <= ReferenceProfiler::kMaxActiveColumns) {
      cli->max_cols = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--max-rows=", &value) && value >= 2) {
      cli->max_rows = value;
    } else if (ParseIntFlag(arg, "--append-batches=", &value) && value >= 0) {
      cli->append_batches = static_cast<int>(value);
    } else if (arg == "--append-only") {
      cli->append_only = true;
    } else if (arg == "--verbose") {
      cli->verbose = true;
    } else if (arg == "--self-test") {
      cli->self_test = true;
    } else {
      std::fprintf(stderr, "unknown or invalid option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage(stderr);
    return 1;
  }
  if (cli.self_test) return SelfTest(cli);

  const std::vector<DiffConfig> configs = ConfigMatrix();
  const std::vector<DiffConfig> append_configs = AppendConfigMatrix();
  int mismatches = 0;
  int runs = 0;
  for (int seed = cli.start_seed; seed < cli.start_seed + cli.seeds; ++seed) {
    if (!cli.append_only) mismatches += RunSeed(seed, cli, configs, &runs);
    if (cli.append_batches > 0) {
      mismatches += RunAppendSeed(seed, cli, append_configs, &runs);
    }
  }
  std::fprintf(stderr,
               "muds_diff: %d seeds, %d engine runs, %d mismatch%s\n",
               cli.seeds, runs, mismatches, mismatches == 1 ? "" : "es");
  return mismatches == 0 ? 0 : 2;
}
