// Ingest bench: load + dictionary-encode throughput of the parallel
// buffered engine versus the seed streaming parser (ReferenceCsvReader,
// read through an ostringstream as the seed did), on a ~1M-row CSV file
// (~2M with --full). Writes BENCH_ingest.json with rows/s and bytes/s per
// configuration, and verifies the buffered relations are bit-identical to
// the streaming reference before reporting — a perf number for a wrong
// parse would be meaningless.
//
// The long_narrow/* rows repeat the comparison on a quote-free 1M x 8 CSV
// of short low-cardinality values (v0..v8), the shape of e2ebench's
// long_narrow workload: the buffered engine splits it without the
// quote-aware pre-scan, at 1 and 4 threads.
//
// The dedup/rows=1000000 row times DeduplicateRows at one thread on the
// 1M x 8 long-narrow shape against a node-based unordered_set reference
// kept in this file, after checking both keep the same rows. Its product of
// cardinalities (362,880) is below the row count, so it times the bitmap
// pass over row ranks. The dedup_hashed/rows=1000000 row does the same on
// 1M x 8 columns of cardinality 16, whose product (2^32) exceeds the row
// count, so it times the hashed path.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "testing/reference_csv.h"
#include "workload/generators.h"

namespace muds {
namespace {

std::string MakeCsvText(int64_t rows, uint64_t seed) {
  std::string text = "id,word,group,payload,flag,note\n";
  text.reserve(static_cast<size_t>(rows) * 48);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    text += std::to_string(i);
    text += ",w";
    text += std::to_string(rng.NextBelow(40000));
    text += ",g";
    text += std::to_string(rng.NextBelow(97));
    text += ",p";
    text += std::to_string(rng.NextBelow(1u << 20));
    text += rng.NextBelow(2) ? ",yes" : ",no";
    // Every 16th note is quoted with an embedded separator and newline, so
    // the bench also pays the quote-handling and arena paths.
    if (rng.NextBelow(16) == 0) {
      text += ",\"n,";
      text += std::to_string(rng.NextBelow(1000));
      text += "\nx\"\n";
    } else {
      text += ",n";
      text += std::to_string(rng.NextBelow(1000));
      text += '\n';
    }
  }
  return text;
}

// `rows` x 8, no quote byte anywhere: column c holds v0..v<k-1> for its
// cardinality k, as in e2ebench's long_narrow table.
std::string MakeLongNarrowCsvText(int64_t rows, uint64_t seed) {
  constexpr uint64_t kCardinalities[] = {6, 4, 8, 3, 5, 7, 2, 9};
  std::string text = "c0,c1,c2,c3,c4,c5,c6,c7\n";
  text.reserve(static_cast<size_t>(rows) * 24 + text.size());
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    for (const uint64_t cardinality : kCardinalities) {
      text += 'v';
      text += static_cast<char>('0' + rng.NextBelow(cardinality));
      text += ',';
    }
    text.back() = '\n';
  }
  return text;
}

bool Identical(const Relation& a, const Relation& b) {
  if (a.NumColumns() != b.NumColumns() || a.NumRows() != b.NumRows() ||
      a.ColumnNames() != b.ColumnNames()) {
    return false;
  }
  for (int c = 0; c < a.NumColumns(); ++c) {
    if (a.GetColumn(c).dictionary != b.GetColumn(c).dictionary ||
        a.GetColumn(c).codes != b.GetColumn(c).codes) {
      return false;
    }
  }
  return true;
}

// The reference: a node-based set of row ids hashing and comparing rows
// across the column vectors, then a row selection.
Relation ReferenceDeduplicate(const Relation& relation,
                              std::vector<RowId>* keep) {
  const auto hash = [&relation](RowId row) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int c = 0; c < relation.NumColumns(); ++c) {
      h ^= static_cast<uint64_t>(relation.Code(row, c));
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  };
  const auto equal = [&relation](RowId a, RowId b) {
    for (int c = 0; c < relation.NumColumns(); ++c) {
      if (relation.Code(a, c) != relation.Code(b, c)) return false;
    }
    return true;
  };
  std::unordered_set<RowId, decltype(hash), decltype(equal)> seen(
      static_cast<size_t>(relation.NumRows()) * 2 + 16, hash, equal);
  keep->clear();
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    if (seen.insert(row).second) keep->push_back(row);
  }
  return relation.SelectRows(*keep);
}

// Best-of-`reps` DeduplicateRows vs. the reference on 1M rows of the given
// column cardinalities, added as row `name`/rows=1000000; false on a
// mismatch.
bool RunDedup(const std::string& name,
              const std::vector<int64_t>& cardinalities,
              const bench::BenchArgs& args, int reps,
              bench::JsonResultWriter* writer) {
  const int64_t rows = 1'000'000;
  const Relation relation =
      MakeCategorical(rows, cardinalities, args.seed, name);
  double reference_ms = 0.0;
  double dedup_ms = 0.0;
  std::vector<RowId> reference_keep;
  std::optional<Relation> reference;
  std::optional<DeduplicateResult> result;
  for (int rep = 0; rep < reps; ++rep) {
    Timer reference_timer;
    reference.emplace(ReferenceDeduplicate(relation, &reference_keep));
    const double ref_ms =
        static_cast<double>(reference_timer.ElapsedMicros()) / 1e3;
    Timer timer;
    result.emplace(DeduplicateRows(relation));
    const double ms = static_cast<double>(timer.ElapsedMicros()) / 1e3;
    if (rep == 0 || ref_ms < reference_ms) reference_ms = ref_ms;
    if (rep == 0 || ms < dedup_ms) dedup_ms = ms;
  }
  if (DistinctRowIds(relation) != reference_keep ||
      !Identical(result->relation, *reference)) {
    std::fprintf(stderr,
                 "FAIL: DeduplicateRows keeps other rows than the "
                 "unordered_set reference\n");
    return false;
  }
  const double speedup = reference_ms / dedup_ms;
  std::printf("%-14s threads=1  %9.1f ms  (unordered_set reference "
              "%.1f ms)  %.2fx  %lld duplicates\n",
              name.c_str(), dedup_ms, reference_ms, speedup,
              static_cast<long long>(result->duplicates_removed));
  writer->Add(name + "/rows=" + std::to_string(rows), dedup_ms, 1,
              {{"rows", rows},
               {"duplicates_removed", result->duplicates_removed},
               {"reference_us", static_cast<int64_t>(reference_ms * 1e3)},
               {"dedup_speedup_x100", static_cast<int64_t>(speedup * 100.0)}});
  return true;
}

struct Config {
  const char* name;
  Result<Relation> (*read_file)(const std::string&, const CsvOptions&);
  int threads;
};

// The buffered reader on a pool of `options.num_threads`.
Result<Relation> ReadBuffered(const std::string& path,
                              const CsvOptions& options) {
  return CsvReader::ReadFile(path, options);
}

constexpr auto kStream = &ReferenceCsvReader::ReadFile;
constexpr auto kBuffered = &ReadBuffered;

// Times `read_file` on `text` for each config over `reps` runs, and adds one
// row per config named `prefix` + "<engine>/threads=<n>": its best run (the
// wall time and every rate) and its median run (median_us), since on a
// shared machine the best alone can hide or invent a change of a few
// percent. The first config
// must be the stream reference: every buffered relation is checked against
// it. Returns false on an I/O error or a mismatch.
bool RunIngest(const std::string& prefix, const std::string& text,
               int64_t rows, const std::vector<Config>& configs, int reps,
               bench::JsonResultWriter* writer) {
  const std::string path = "bench_ingest_input.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot create %s\n", path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  const double mib = static_cast<double>(text.size()) / (1 << 20);
  std::printf("%sinput: %.1f MiB, %lld rows\n", prefix.c_str(), mib,
              static_cast<long long>(rows));

  std::optional<Relation> reference;
  double stream_ms = 0.0;
  bool ok = true;
  for (const Config& config : configs) {
    CsvOptions options;
    options.num_threads = config.threads;
    std::vector<double> rep_ms;
    std::optional<Relation> relation;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      Result<Relation> parsed = config.read_file(path, options);
      const double ms =
          static_cast<double>(timer.ElapsedMicros()) / 1e3;
      if (!parsed.ok()) {
        std::fprintf(stderr, "parse failed: %s\n",
                     parsed.status().ToString().c_str());
        std::remove(path.c_str());
        return false;
      }
      rep_ms.push_back(ms);
      relation.emplace(std::move(parsed).value());
    }
    std::sort(rep_ms.begin(), rep_ms.end());
    const double best_ms = rep_ms.front();
    const double median_ms = rep_ms[rep_ms.size() / 2];
    if (config.read_file == kStream) {
      stream_ms = best_ms;
      reference.emplace(std::move(*relation));
    } else if (!Identical(*relation, *reference)) {
      std::fprintf(stderr,
                   "FAIL: %sbuffered relation (threads=%d) differs from the "
                   "streaming reference\n",
                   prefix.c_str(), config.threads);
      ok = false;
    }

    const double seconds = best_ms / 1e3;
    const int64_t rows_per_s =
        static_cast<int64_t>(static_cast<double>(rows) / seconds);
    const int64_t bytes_per_s = static_cast<int64_t>(
        static_cast<double>(text.size()) / seconds);
    const double speedup = stream_ms / best_ms;
    const std::string name =
        prefix + config.name + "/threads=" + std::to_string(config.threads);
    std::printf("%-32s %9.1f ms  (median %9.1f ms)  %7.2f MiB/s  %8lld rows/s"
                "  %.2fx\n",
                name.c_str(), best_ms, median_ms,
                static_cast<double>(bytes_per_s) / (1 << 20),
                static_cast<long long>(rows_per_s), speedup);
    writer->Add(name, best_ms, config.threads,
                {{"rows", rows},
                 {"bytes", static_cast<int64_t>(text.size())},
                 {"median_us", static_cast<int64_t>(median_ms * 1e3)},
                 {"rows_per_s", rows_per_s},
                 {"bytes_per_s", bytes_per_s},
                 {"speedup_vs_stream_pct",
                  static_cast<int64_t>(speedup * 100.0)}});
  }
  std::remove(path.c_str());
  return ok;
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const int64_t rows = args.full ? 2'000'000 : 1'000'000;
  const int reps = 5;

  std::printf("generating %lld-row CSV...\n", static_cast<long long>(rows));
  bench::PrintRule();
  bench::JsonResultWriter writer("ingest");
  bool ok = RunIngest("", MakeCsvText(rows, args.seed), rows,
                      {{"stream", kStream, 1},
                       {"buffered", kBuffered, 1},
                       {"buffered", kBuffered, 2},
                       {"buffered", kBuffered, 8}},
                      reps, &writer);
  const int64_t narrow_rows = 1'000'000;
  ok &= RunIngest("long_narrow/", MakeLongNarrowCsvText(narrow_rows, args.seed),
                  narrow_rows,
                  {{"stream", kStream, 1},
                   {"buffered", kBuffered, 1},
                   {"buffered", kBuffered, 4}},
                  reps, &writer);
  ok &= RunDedup("dedup", {6, 4, 8, 3, 5, 7, 2, 9}, args, reps, &writer);
  ok &= RunDedup("dedup_hashed", std::vector<int64_t>(8, 16), args, reps,
                 &writer);
  writer.Write();
  bench::PrintRule();
  if (!ok) return 1;
  std::printf("all buffered relations bit-identical to the streaming "
              "reference; dedup keeps the reference's rows\n");
  return 0;
}

}  // namespace
}  // namespace muds

int main(int argc, char** argv) { return muds::Run(argc, argv); }
