// The JSON value: parsing, the number grammar, exact numbers (%.17g
// doubles, integer text, tokens kept as they arrived), and damaged
// documents that must either parse or fail with a ParseError.
#include "base/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "base/rng.hpp"

namespace tir {
namespace {

TEST(Json, ParsesScalarsArraysObjects) {
  const Json j = Json::parse(
      R"({"s":"hi\n\"there\"","n":-2.5e3,"t":true,"f":false,"z":null,"a":[1,2,3]})");
  EXPECT_EQ(j.get("s").as_string(), "hi\n\"there\"");
  EXPECT_EQ(j.get("n").as_number(), -2500.0);
  EXPECT_TRUE(j.get("t").as_bool());
  EXPECT_FALSE(j.get("f").as_bool());
  EXPECT_TRUE(j.get("z").is_null());
  ASSERT_EQ(j.get("a").size(), 3u);
  EXPECT_EQ(j.get("a").at(2).as_number(), 3.0);
  EXPECT_TRUE(j.get("missing").is_null());
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse(""), ParseError);
}

TEST(Json, NumbersFollowTheJsonGrammar) {
  for (const char* ok : {"0", "-0", "0.5", "-1.5e-3", "1E+2", "2e9", "123456789012345678901"}) {
    EXPECT_EQ(Json::parse(ok).as_number(), std::strtod(ok, nullptr)) << ok;
  }
  for (const char* bad : {"inf", "-inf", "nan", "Infinity", "0x1p30", "01", "+1", ".5", "1.",
                          "1e", "1e+", "-", "1.5.2", "1e999", "-1e999"}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
}

TEST(Json, DumpParseRoundTripsDoublesExactly) {
  // %.17g round-trips every finite double bit-exactly; the service bench
  // compares predictions that crossed the wire this way.
  const double values[] = {0.1, 1.0 / 3.0, 6.62607015e-34, 1.7976931348623157e308,
                           5e-324, 123456789.123456789};
  for (const double v : values) {
    Json j = Json::object();
    j.set("v", v);
    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.get("v").as_number(), v);
  }
}

TEST(Json, IntegersAndDigitsAreExact) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Json(kMax).dump(), "18446744073709551615");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(), "-9223372036854775808");
  EXPECT_EQ(Json::number(1.0 / 3.0, 12).dump(), "0.333333333333");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.33333333333333331");
  EXPECT_TRUE(Json(std::numeric_limits<double>::infinity()).is_null());

  // A parsed token is written back as it arrived, integer or 12 digits.
  const std::string line = R"({"seed":18446744073709551615,"t":0.333333333333,"e":1E+2})";
  const Json j = Json::parse(line);
  EXPECT_EQ(j.dump(), line);
  EXPECT_EQ(j.int_or<std::uint64_t>("seed", 0), kMax);
  EXPECT_EQ(j.get("t").as_number(), 0.333333333333);
  EXPECT_EQ(j.int_or("e", 0), 100);
}

// Bit flips, truncations, duplicated ranges and splices over a request
// line and a metrics `done` line: every mutant parses or throws a
// ParseError, and whatever parses dumps to a document that parses back to
// the same bytes.
TEST(Json, MutatedDocumentsParseOrThrowParseError) {
  const std::string docs[] = {
      R"({"op":"predict","trace":"lu.titb","nprocs":8,"metrics":true,"idem":"00ff",)"
      R"("calibration":{"procedure":"cache-aware","seed":9007199254740993,)"
      R"("truth":{"rate_in_cache":2.5e9,"l2_bytes":1048576}},)"
      R"("scenarios":[{"label":"msg \"x\"\n","backend":"msg","rates":[1e9,2.5E+9],)"
      R"("contention":true,"watchdog_seconds":0.5}]})",
      R"({"type":"done","job":6,"scenarios":1,"scenarios_ok":1,"metrics":[{"label":"s",)"
      R"("report":{"simulated_time":3.000148384,"engine_steps":4,"totals":{"compute":3,)"
      R"("comm":1.000148384,"wait":2.000148384},"ranks":[{"rank":0,"name":"rank0",)"
      R"("by_state":{"compute":1,"send":0,"idle":2.000148384},"eager":{"messages":1,)"
      R"("bytes":1024}}],"collectives":[],"links":[{"link":0,"busy_seconds":1.6384e-05,)"
      R"("utilization":2.73053161094e-06}],"diagnostics":[]}}],"summary":{"scenarios":1,)"
      R"("total_wait":-0,"max_queue_wait":null}})",
  };
  for (const std::string& doc : docs) ASSERT_NO_THROW((void)Json::parse(doc)) << doc;

  constexpr int kMutants = 2000;
  int parsed = 0;
  for (int seed = 0; seed < kMutants; ++seed) {
    rng::Sequence draw(static_cast<std::uint64_t>(seed));
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(draw.next_u64() % n); };
    std::string m = docs[pick(2)];
    switch (seed % 4) {
      case 0:  // bit flip
        m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // truncation
        m.resize(pick(m.size()));
        break;
      case 2: {  // duplicated range
        const std::size_t from = pick(m.size());
        const std::string range = m.substr(from, 1 + pick(16));
        m.insert(pick(m.size() + 1), range);
        break;
      }
      default: {  // splice: a prefix of one document, a suffix of another
        const std::string& other = docs[pick(2)];
        m = m.substr(0, pick(m.size())) + other.substr(pick(other.size()));
        break;
      }
    }
    try {
      const std::string dumped = Json::parse(m).dump();
      EXPECT_EQ(Json::parse(dumped).dump(), dumped) << "mutant " << seed << ": " << m;
      ++parsed;
    } catch (const ParseError&) {
      // The typed failure every damaged document may end in.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << seed << " threw " << e.what() << ": " << m;
    }
  }
  // The budget exercises both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

}  // namespace
}  // namespace tir
