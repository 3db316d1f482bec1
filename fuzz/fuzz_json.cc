// Round-trip fuzzer for the JSON reader and writer (common/json.h), which
// every muds_serve request and response frame goes through.
//
// Every input that parses must dump to text that parses again, and Dump
// must be a fixed point: Dump(Parse(Dump(v))) == Dump(v). Inputs that do
// not parse only have to fail cleanly (a Status, no crash, no sanitizer
// report).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.h"
#include "fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using muds::Result;
  namespace json = muds::json;

  const Result<json::Value> parsed =
      json::Parse(std::string_view(reinterpret_cast<const char*>(data), size));
  if (!parsed.ok()) return 0;
  const std::string dumped = json::Dump(parsed.value());
  const Result<json::Value> reparsed = json::Parse(dumped);
  FUZZ_ASSERT(reparsed.ok());
  FUZZ_ASSERT(json::Dump(reparsed.value()) == dumped);
  return 0;
}
