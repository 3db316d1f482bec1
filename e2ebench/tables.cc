#include "tables.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "fd/tane.h"
#include "testing/reference.h"
#include "workload/generators.h"

namespace e2e {

using muds::ColumnSet;
using muds::Relation;

std::string Summary::ToString() const {
  char text[128];
  std::snprintf(text, sizeof(text),
                "%" PRId64 " INDs, %" PRId64 " UCCs, %" PRId64
                " FDs, digest 0x%016" PRIx64,
                inds, uccs, fds, digest);
  return text;
}

Summary Summarize(ResultSets sets) {
  muds::Canonicalize(&sets.inds);
  muds::Canonicalize(&sets.uccs);
  muds::Canonicalize(&sets.fds);
  std::string listing;
  for (const muds::Ind& ind : sets.inds) {
    listing += "I " + std::to_string(ind.dependent) + " " +
               std::to_string(ind.referenced) + "\n";
  }
  for (const ColumnSet& ucc : sets.uccs) listing += "U " + ucc.ToString() + "\n";
  for (const muds::Fd& fd : sets.fds) {
    listing += "F " + fd.lhs.ToString() + " " + std::to_string(fd.rhs) + "\n";
  }
  return Summary{static_cast<int64_t>(sets.inds.size()),
                 static_cast<int64_t>(sets.uccs.size()),
                 static_cast<int64_t>(sets.fds.size()),
                 muds::HashBytes(listing)};
}

Summary Summarize(const muds::ProfilingResult& result) {
  return Summarize(ResultSets{result.inds, result.uccs, result.fds});
}

muds::Result<Summary> SummarizeReportJson(std::string_view report) {
  muds::Result<muds::json::Value> parsed = muds::json::Parse(report);
  if (!parsed.ok()) return parsed.status();
  return SummarizeReport(parsed.value());
}

muds::Result<Summary> SummarizeReport(const muds::json::Value& root) {
  const auto bad = [](const std::string& what) {
    return muds::Status::ParseError("report: " + what);
  };
  const muds::json::Value* columns = root.Find("columns");
  if (columns == nullptr || !columns->IsArray()) return bad("no columns");
  std::unordered_map<std::string, int> position;
  for (size_t i = 0; i < columns->array.size(); ++i) {
    position[columns->array[i].string] = static_cast<int>(i);
  }
  bool known = true;
  const auto column = [&](const muds::json::Value* name) {
    if (name == nullptr || !name->IsString()) {
      known = false;
      return 0;
    }
    const auto it = position.find(name->string);
    if (it == position.end()) known = false;
    return it == position.end() ? 0 : it->second;
  };
  const auto column_set = [&](const muds::json::Value* names) {
    ColumnSet set;
    if (names == nullptr || !names->IsArray()) {
      known = false;
      return set;
    }
    for (const muds::json::Value& name : names->array) set.Add(column(&name));
    return set;
  };

  const muds::json::Value* inds = root.Find("inds");
  const muds::json::Value* uccs = root.Find("uccs");
  const muds::json::Value* fds = root.Find("fds");
  if (inds == nullptr || uccs == nullptr || fds == nullptr ||
      !inds->IsArray() || !uccs->IsArray() || !fds->IsArray()) {
    return bad("missing inds/uccs/fds");
  }
  ResultSets sets;
  for (const muds::json::Value& ind : inds->array) {
    sets.inds.push_back(
        {column(ind.Find("dependent")), column(ind.Find("referenced"))});
  }
  for (const muds::json::Value& ucc : uccs->array) {
    sets.uccs.push_back(column_set(&ucc));
  }
  for (const muds::json::Value& fd : fds->array) {
    sets.fds.push_back({column_set(fd.Find("lhs")), column(fd.Find("rhs"))});
  }
  if (!known) return bad("malformed or unknown column reference");
  return Summarize(std::move(sets));
}

const Summary& Expected(const std::string& table) {
  // Recorded with `e2ebench --define`, which derives each entry from the
  // brute-force reference oracle (src/testing/reference) and checks MUDS,
  // TANE and the append path against it.
  static const std::map<std::string, Summary> kExpected = {
      {"long_narrow", {28, 1, 0, 0xb1584e1650306ddaull}},
      {"wide_fd_rich", {268, 2572, 25696, 0xc25dea54e45c6a62ull}},
      {"serve_cold_0", {90, 140, 566, 0x73a1fe5c58ee3f6bull}},
      {"serve_cold_1", {90, 131, 535, 0x19f82a8c35fdfe1dull}},
      {"serve_cold_2", {90, 149, 606, 0xf398b42ae91ac6a7ull}},
      {"serve_cold_3", {90, 125, 514, 0x3fdabee5520d179bull}},
      {"serve_append_0", {90, 137, 556, 0x1bcb7c6e3109bc65ull}},
      {"serve_append_1", {90, 132, 549, 0xaaa5fe67bbada20aull}},
  };
  const auto it = kExpected.find(table);
  MUDS_CHECK_MSG(it != kExpected.end(), "no expected summary recorded");
  return it->second;
}

std::string LongNarrowCsv(uint64_t seed) {
  constexpr uint64_t kCardinalities[] = {6, 4, 8, 3, 5, 7, 2, 9};
  constexpr int kRows = 1'000'000;
  std::string csv = "c0,c1,c2,c3,c4,c5,c6,c7\n";
  csv.reserve(size_t{25} << 20);
  muds::Rng rng(seed);
  for (int row = 0; row < kRows; ++row) {
    for (uint64_t cardinality : kCardinalities) {
      csv += 'v';
      csv += static_cast<char>('0' + rng.NextBelow(cardinality));
      csv += ',';
    }
    csv.back() = '\n';
  }
  return csv;
}

Relation WideFdRichTable() {
  for (const muds::UciProfile& profile : muds::UciProfiles()) {
    if (profile.name == "hepatitis") return muds::MakeUciLike(profile, 1);
  }
  MUDS_CHECK_MSG(false, "UciProfiles() has no hepatitis profile");
  return muds::MakeCategorical(0, {}, 0, "");
}

std::vector<Relation> ServeColdTables() {
  std::vector<Relation> tables;
  for (uint64_t seed = 100; seed < 104; ++seed) {
    tables.push_back(muds::MakeCategorical(
        4'000, std::vector<int64_t>(10, 16), seed, "serve_cold"));
  }
  return tables;
}

std::vector<Relation> ServeAppendTables() {
  std::vector<Relation> tables;
  for (uint64_t seed = 200; seed < 202; ++seed) {
    tables.push_back(muds::MakeCategorical(
        4'000, std::vector<int64_t>(10, 16), seed, "serve_append"));
  }
  return tables;
}

CsvLines CsvLines::From(const Relation& relation) {
  const std::string text = muds::CsvWriter::ToString(relation);
  CsvLines lines;
  size_t start = text.find('\n');
  MUDS_CHECK(start != std::string::npos);
  lines.header = text.substr(0, start);
  ++start;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.rows.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  MUDS_CHECK(static_cast<int64_t>(lines.rows.size()) == relation.NumRows());
  return lines;
}

std::string CsvLines::Join(const std::vector<uint32_t>& order, size_t begin,
                           size_t end, bool with_header) const {
  std::string text;
  if (with_header) text = header + "\n";
  for (size_t i = begin; i < end; ++i) {
    text += rows[order[i]];
    text += '\n';
  }
  return text;
}

std::vector<uint32_t> Permutation(size_t n, muds::Rng* rng) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBelow(i)]);
  }
  return order;
}

namespace {

// Base rows of the append check; the rest of the table arrives as batches.
constexpr size_t kCheckBaseRows = 3'000;

// Reference summary of the table `csv` holds, with MUDS (4 threads) checked
// against it. Returns false on mismatch.
bool DefineOne(const std::string& table, const std::string& csv,
               std::vector<std::pair<std::string, Summary>>* out) {
  const Relation relation = muds::CsvReader::ReadString(csv).value();
  const muds::ReferenceResult reference =
      muds::ReferenceProfiler::Profile(relation);
  const Summary expected =
      Summarize(ResultSets{reference.inds, reference.uccs, reference.fds});
  muds::ProfileOptions options;
  options.num_threads = 4;
  const Summary muds_summary =
      Summarize(muds::ProfileCsvString(csv, options).value());
  std::printf("%-16s reference: %s\n", table.c_str(),
              expected.ToString().c_str());
  out->emplace_back(table, expected);
  if (!(muds_summary == expected)) {
    std::printf("MISMATCH %s: MUDS gives %s\n", table.c_str(),
                muds_summary.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int DefineExpectations() {
  bool ok = true;
  std::vector<std::pair<std::string, Summary>> table;
  ok &= DefineOne("long_narrow", LongNarrowCsv(1), &table);

  const std::string wide = muds::CsvWriter::ToString(WideFdRichTable());
  ok &= DefineOne("wide_fd_rich", wide, &table);
  // TANE's FDs, and the keys it finds on the way, must match too.
  const Relation deduped =
      muds::DeduplicateRows(muds::CsvReader::ReadString(wide).value())
          .relation;
  const muds::FdDiscoveryResult tane = muds::Tane::Discover(deduped);
  const Summary tane_summary = Summarize(ResultSets{
      muds::ReferenceProfiler::DiscoverInds(deduped), tane.uccs, tane.fds});
  if (!(tane_summary == table.back().second)) {
    std::printf("MISMATCH wide_fd_rich: TANE gives %s\n",
                tane_summary.ToString().c_str());
    ok = false;
  }

  const std::vector<Relation> cold = ServeColdTables();
  for (size_t i = 0; i < cold.size(); ++i) {
    ok &= DefineOne("serve_cold_" + std::to_string(i),
                    muds::CsvWriter::ToString(cold[i]), &table);
  }
  const std::vector<Relation> appends = ServeAppendTables();
  for (size_t i = 0; i < appends.size(); ++i) {
    const std::string name = "serve_append_" + std::to_string(i);
    ok &= DefineOne(name, muds::CsvWriter::ToString(appends[i]), &table);
    // The append path over a permuted split must give the summary of the
    // whole table, i.e. of the concatenated bytes.
    const CsvLines lines = CsvLines::From(appends[i]);
    muds::Rng rng(7 + i);
    const std::vector<uint32_t> order = Permutation(lines.rows.size(), &rng);
    const size_t mid = (kCheckBaseRows + lines.rows.size()) / 2;
    const muds::ProfilingResult incremental =
        muds::ProfileCsvStringWithAppends(
            lines.Join(order, 0, kCheckBaseRows, true),
            {lines.Join(order, kCheckBaseRows, mid, false),
             lines.Join(order, mid, lines.rows.size(), false)},
            {})
            .value();
    if (!(Summarize(incremental) == table.back().second)) {
      std::printf("MISMATCH %s: append path gives %s\n", name.c_str(),
                  Summarize(incremental).ToString().c_str());
      ok = false;
    }
  }

  std::printf("\n// Expected() table:\n");
  for (const auto& [name, summary] : table) {
    std::printf("      {\"%s\", {%" PRId64 ", %" PRId64 ", %" PRId64
                ", 0x%016" PRIx64 "ull}},\n",
                name.c_str(), summary.inds, summary.uccs, summary.fds,
                summary.digest);
  }
  std::printf("%s\n", ok ? "all cross-checks passed" : "CROSS-CHECK FAILED");
  return ok ? 0 : 1;
}

}  // namespace e2e
