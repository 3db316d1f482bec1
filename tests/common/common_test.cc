#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"

namespace muds {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad record");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad record");
  EXPECT_EQ(s.ToString(), "ParseError: bad record");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(timer.ElapsedMicros(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

TEST(PhaseTimingsTest, AccumulatesInFirstUseOrder) {
  PhaseTimings timings;
  timings.Add("load", 100);
  timings.Add("run", 50);
  timings.Add("load", 25);
  EXPECT_EQ(timings.Micros("load"), 125);
  EXPECT_EQ(timings.Micros("run"), 50);
  EXPECT_EQ(timings.Micros("missing"), 0);
  EXPECT_EQ(timings.TotalMicros(), 175);
  ASSERT_EQ(timings.entries().size(), 2u);
  EXPECT_EQ(timings.entries()[0].first, "load");
}

TEST(PhaseTimingsTest, TraceSpanAdds) {
  PhaseTimings timings;
  {
    MUDS_TRACE_SPAN(&timings, "scope");
  }
  EXPECT_EQ(timings.entries().size(), 1u);
  EXPECT_GE(timings.Micros("scope"), 0);
}

TEST(JsonTest, DeepNestingIsAnErrorNotAStackOverflow) {
  const Result<json::Value> deep = json::Parse(std::string(200000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  EXPECT_NE(deep.status().message().find("at byte 512"), std::string::npos)
      << deep.status().message();

  // 512 levels still parse; objects count towards the same limit.
  const Result<json::Value> at_limit =
      json::Parse(std::string(512, '[') + std::string(512, ']'));
  EXPECT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  std::string objects;
  for (int i = 0; i < 513; ++i) objects += "{\"k\":";
  objects += "1" + std::string(513, '}');
  EXPECT_FALSE(json::Parse(objects).ok());
}

TEST(JsonTest, OverflowingNumbersAreParseErrors) {
  // strtod reads these as infinities, which Dump could not write back.
  for (const char* text : {"1e400", "-1e400", "[1e400]", "{\"k\":-1e999}"}) {
    const Result<json::Value> parsed = json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
  }
  // Underflow rounds to a finite number and stays valid.
  const Result<json::Value> tiny = json::Parse("1e-400");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ(tiny.value().number, 0.0);
}

TEST(JsonTest, NumbersFollowTheRfc8259Grammar) {
  // strtod would read each of these, but JSON spells none of them.
  for (const char* text : {"+1", ".5", "1.", "01", "-", "1e", "1e+", "--1",
                           "-01", "1.e5", "1e5.", "0x10", "[01]", "[.5]",
                           "{\"k\":1.}", "[-]", "[1e-]", "00"}) {
    const Result<json::Value> parsed = json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
  }
  const std::pair<const char*, double> valid[] = {
      {"0", 0.0},     {"-0", -0.0},   {"7", 7.0},     {"-12", -12.0},
      {"0.5", 0.5},   {"-0.25", -0.25}, {"10.0", 10.0}, {"1e3", 1e3},
      {"1E+2", 1e2},  {"2e-1", 0.2},  {"0e0", 0.0},   {"-1.5E-3", -1.5e-3},
      {"[0, 1]", 0.0}};
  for (const auto& [text, number] : valid) {
    const Result<json::Value> parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const json::Value& value = parsed.value().type == json::Value::Type::kArray
                                   ? parsed.value().array[0]
                                   : parsed.value();
    EXPECT_EQ(value.number, number) << text;
  }
}

TEST(JsonTest, DumpOfNumbersOutsideInt64RoundTrips) {
  json::Value value;
  value.type = json::Value::Type::kNumber;
  // Integral but far outside int64_t: printed with 17 digits, not cast.
  value.number = 1e300;
  const std::string big = json::Dump(value);
  EXPECT_EQ(big, "1.0000000000000001e+300");
  const Result<json::Value> reparsed = json::Parse(big);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().number, 1e300);
  // The int64_t edges: -2^63 still prints as an integer, 2^63 does not.
  value.number = -0x1p63;
  EXPECT_EQ(json::Dump(value), "-9223372036854775808");
  value.number = 0x1p63;
  EXPECT_EQ(json::Dump(value), "9.2233720368547758e+18");
  EXPECT_EQ(json::Parse(json::Dump(value)).value().number, 0x1p63);
}

TEST(HashBytesTest, TailLoadEqualsZeroExtendedMemcpy) {
  // HashBytes reads the 1-7 tail bytes with fixed-size loads. The value
  // must stay the one a memcpy into a zeroed word gives, since result
  // digests and catalog keys are built from it.
  const auto reference = [](const char* data, size_t n, uint64_t seed) {
    uint64_t h = seed ^ (n * 0xA0761D6478BD642Full);
    for (; n > 0; data += 8, n -= std::min<size_t>(n, 8)) {
      uint64_t k = 0;
      std::memcpy(&k, data, std::min<size_t>(n, 8));
      k *= 0x9DDFEA08EB382D69ull;
      k ^= k >> 32;
      h = (h ^ k) * 0xC2B2AE3D27D4EB4Full;
    }
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return h;
  };
  Rng rng(7);
  std::string bytes;
  for (int i = 0; i < 64; ++i) bytes += static_cast<char>(rng.NextBelow(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 24; ++n) {
      const char* data = bytes.data() + offset;
      EXPECT_EQ(HashBytes(data, n), reference(data, n, 0x9E3779B97F4A7C15ull))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(HashBytes(data, n, 0xE7037ED1A0B428DBull),
                reference(data, n, 0xE7037ED1A0B428DBull))
          << "offset " << offset << " length " << n;
    }
  }
}

}  // namespace
}  // namespace muds
