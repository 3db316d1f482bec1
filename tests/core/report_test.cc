#include "core/report.h"

#include <gtest/gtest.h>

namespace muds {
namespace {

ProfilingResult SampleResult() {
  ProfilingResult result;
  result.algorithm_used = Algorithm::kMuds;
  result.column_names = {"id", "city,\"quoted\"", "zip"};
  result.inds = {{2, 0}};
  result.uccs = {ColumnSet::Single(0)};
  result.fds = {{ColumnSet(), 2}, {ColumnSet::FromIndices({0, 1}), 2}};
  result.duplicates_removed = 3;
  result.metrics = {{"muds.fd_checks", 42}};
  result.num_threads_used = 3;
  result.timings.Add("SPIDER", 1500);
  result.timings.Add("DUCC", 2500);
  return result;
}

TEST(JsonQuoteTest, EscapesSpecials) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonQuote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(ReportJsonTest, ContainsAllSections) {
  const std::string json = ProfilingResultToJson(SampleResult());
  EXPECT_NE(json.find("\"algorithm\": \"MUDS\""), std::string::npos);
  EXPECT_NE(json.find("\"duplicates_removed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"dependent\": \"zip\""), std::string::npos);
  EXPECT_NE(json.find("\"referenced\": \"id\""), std::string::npos);
  EXPECT_NE(json.find("\"num_threads_used\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"muds.fd_checks\": 42"), std::string::npos);
  // The registry metrics are the report's only counter channel.
  EXPECT_EQ(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"SPIDER\": 1500"), std::string::npos);
  // The empty-lhs FD serializes as an empty array.
  EXPECT_NE(json.find("{\"lhs\": [], \"rhs\": \"zip\"}"),
            std::string::npos);
}

TEST(ReportJsonTest, EscapesColumnNames) {
  const std::string json = ProfilingResultToJson(SampleResult());
  EXPECT_NE(json.find("\"city,\\\"quoted\\\"\""), std::string::npos);
  // The raw (unescaped) name must not leak into the document.
  EXPECT_EQ(json.find(",\"quoted\" "), std::string::npos);
}

TEST(ReportJsonTest, BalancedBracesAndBrackets) {
  const std::string json = ProfilingResultToJson(SampleResult());
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(ReportTextTest, SummaryAndFullModes) {
  const ProfilingResult result = SampleResult();
  const std::string summary = ProfilingResultToText(result, true);
  EXPECT_NE(summary.find("found 1 INDs, 1 minimal UCCs, 2 minimal FDs"),
            std::string::npos);
  EXPECT_EQ(summary.find("functional dependencies:"), std::string::npos);

  const std::string full = ProfilingResultToText(result, false);
  EXPECT_NE(full.find("minimal functional dependencies:"),
            std::string::npos);
  EXPECT_NE(full.find("zip <= id"), std::string::npos);
  EXPECT_NE(full.find("SPIDER"), std::string::npos);
}

TEST(ReportTextTest, EmptyResult) {
  ProfilingResult result;
  result.column_names = {"a"};
  const std::string text = ProfilingResultToText(result, false);
  EXPECT_NE(text.find("found 0 INDs, 0 minimal UCCs, 0 minimal FDs"),
            std::string::npos);
  const std::string json = ProfilingResultToJson(result);
  EXPECT_NE(json.find("\"inds\": [\n  ]"), std::string::npos);
}

}  // namespace
}  // namespace muds
