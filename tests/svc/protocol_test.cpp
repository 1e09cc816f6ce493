// The wire protocol: JSON value round-trips (including the %.17g exactness
// the bench's bit-identity check rides on), request parsing/rendering, and
// response builders.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <string>

#include "svc/json.hpp"

namespace {

using namespace tir;
using svc::Json;

TEST(SvcJson, ParsesScalarsArraysObjects) {
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

TEST(SvcJson, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse(""), ParseError);
}

TEST(SvcJson, NumbersFollowTheJsonGrammar) {
  for (const char* ok : {"0", "-0", "0.5", "-1.5e-3", "1E+2", "2e9", "123456789012345678901"}) {
    EXPECT_EQ(Json::parse(ok).as_number(), std::strtod(ok, nullptr)) << ok;
  }
  for (const char* bad : {"inf", "-inf", "nan", "Infinity", "0x1p30", "01", "+1", ".5", "1.",
                          "1e", "1e+", "-", "1.5.2", "1e999", "-1e999"}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
}

TEST(SvcJson, DumpParseRoundTripsDoublesExactly) {
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

TEST(SvcProtocol, ParseRequestFillsDefaultsAndScenarios) {
  const svc::JobRequest r = svc::parse_request(
      R"({"op":"predict","trace":"t.titb","scenarios":[)"
      R"({"label":"a","rates":[1e9,2e9],"backend":"msg","contention":true},)"
      R"({"label":"b","rates":3e9}]})");
  EXPECT_EQ(r.op, "predict");
  EXPECT_EQ(r.trace, "t.titb");
  ASSERT_EQ(r.scenarios.size(), 2u);
  EXPECT_EQ(r.scenarios[0].backend, core::Backend::Msg);
  EXPECT_TRUE(r.scenarios[0].contention);
  ASSERT_EQ(r.scenarios[0].rates.size(), 2u);
  EXPECT_EQ(r.scenarios[0].rates[1], 2e9);
  ASSERT_EQ(r.scenarios[1].rates.size(), 1u);  // scalar rate accepted
  EXPECT_EQ(r.scenarios[1].backend, core::Backend::Smpi);
}

TEST(SvcProtocol, ParseRequestValidates) {
  EXPECT_THROW(svc::parse_request("not json"), ParseError);
  EXPECT_THROW(svc::parse_request(R"({"op":"dance"})"), ConfigError);
  EXPECT_THROW(svc::parse_request(R"({"op":"predict"})"), ConfigError);  // no trace
  // A scenario without rates needs a job-level calibration.
  EXPECT_THROW(svc::parse_request(R"({"op":"predict","trace":"t"})"), ConfigError);
  EXPECT_THROW(
      svc::parse_request(
          R"({"op":"predict","trace":"t","scenarios":[{"backend":"mpi","rates":1}]})"),
      ConfigError);
  // Calibration requires machine truth.
  EXPECT_THROW(svc::parse_request(R"({"op":"predict","trace":"t","calibration":{}})"),
               ConfigError);
}

// strtod takes inf and hex floats and turns 1e999 into inf; a wire job
// with an infinite rate would predict compute for free.  Each token fails
// with the byte offset where it starts.
TEST(SvcProtocol, NonJsonNumbersAreParseErrorsWithTheirOffset) {
  for (const std::string token : {"inf", "0x1p30", "1e999"}) {
    const std::string request =
        R"({"op":"predict","trace":"t","scenarios":[{"rates":[)" + token + "]}]}";
    try {
      (void)svc::parse_request(request);
      ADD_FAILURE() << token << " parsed";
    } catch (const ParseError& e) {
      const std::string offset = "at offset " + std::to_string(request.find(token));
      EXPECT_NE(std::string(e.what()).find(offset), std::string::npos) << e.what();
    }
  }
}

TEST(SvcProtocol, RenderParseRoundTripsARequest) {
  svc::JobRequest r;
  r.op = "predict";
  r.trace = "lu.titb";
  r.nprocs = 8;
  r.platform = "cluster.txt";
  r.metrics = true;
  r.calibrate = true;
  r.calibration.procedure = "cache-aware";
  r.calibration.truth.rate_in_cache = 2.5e9;
  r.calibration.truth.rate_out_of_cache = 1.2e9;
  r.calibration.truth.l2_bytes = 1 << 20;
  r.calibration.seed = 7;
  svc::ScenarioSpec spec;
  spec.label = "msg-contended";
  spec.backend = core::Backend::Msg;
  spec.contention = true;
  spec.watchdog_seconds = 2.5;
  r.scenarios.push_back(spec);

  const svc::JobRequest back = svc::parse_request(svc::render_request(r));
  EXPECT_EQ(back.trace, r.trace);
  EXPECT_EQ(back.nprocs, 8);
  EXPECT_EQ(back.platform, "cluster.txt");
  EXPECT_TRUE(back.metrics);
  ASSERT_TRUE(back.calibrate);
  EXPECT_EQ(back.calibration.procedure, "cache-aware");
  EXPECT_EQ(back.calibration.truth.rate_in_cache, 2.5e9);
  EXPECT_EQ(back.calibration.seed, 7u);
  ASSERT_EQ(back.scenarios.size(), 1u);
  EXPECT_EQ(back.scenarios[0].label, "msg-contended");
  EXPECT_EQ(back.scenarios[0].backend, core::Backend::Msg);
  EXPECT_TRUE(back.scenarios[0].contention);
  EXPECT_EQ(back.scenarios[0].watchdog_seconds, 2.5);
  EXPECT_TRUE(back.scenarios[0].rates.empty());  // "use the calibrated rate"
}

TEST(SvcProtocol, ScenarioOutcomeRoundTripsBitExactly) {
  core::ScenarioOutcome outcome;
  outcome.label = "rate=2.5e9";
  outcome.ok = true;
  outcome.result.simulated_time = 1.0 / 3.0;
  outcome.result.actions_replayed = 18264;
  outcome.result.engine_steps = 99321;
  outcome.result.wall_clock_seconds = 0.0123;

  const Json wire = Json::parse(svc::make_scenario(7, 2, outcome).dump());
  EXPECT_EQ(wire.str_or("type", ""), "scenario");
  EXPECT_EQ(wire.num_or("job", 0), 7.0);
  EXPECT_EQ(wire.num_or("index", -1), 2.0);
  const core::ScenarioOutcome back = svc::parse_scenario(wire);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.label, outcome.label);
  EXPECT_EQ(back.result.simulated_time, outcome.result.simulated_time);  // bit-exact
  EXPECT_EQ(back.result.actions_replayed, outcome.result.actions_replayed);
  EXPECT_EQ(back.result.engine_steps, outcome.result.engine_steps);
}

TEST(SvcProtocol, FailedScenarioCarriesErrorCodeName) {
  core::ScenarioOutcome outcome;
  outcome.label = "bad";
  outcome.ok = false;
  outcome.error = "deadlock detected";
  outcome.error_code = ErrorCode::Deadlock;

  const Json wire = Json::parse(svc::make_scenario(1, 0, outcome).dump());
  EXPECT_EQ(wire.str_or("error_code", ""), error_code_name(ErrorCode::Deadlock));
  const core::ScenarioOutcome back = svc::parse_scenario(wire);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error_code, ErrorCode::Deadlock);
  EXPECT_EQ(back.error, "deadlock detected");
}

TEST(SvcProtocol, ErrorCodeNamesMapBothWays) {
  for (std::size_t c = 0; c < std::size(kErrorCodeNames); ++c) {
    const auto code = static_cast<ErrorCode>(c);
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_EQ(error_code_from_name("no-such-code"), ErrorCode::Generic);
}

TEST(SvcProtocol, BackpressureResponsesCarryTheContract) {
  const Json rejected = svc::make_rejected(5, 40, 16, 16);
  EXPECT_EQ(rejected.str_or("type", ""), "rejected");
  EXPECT_EQ(rejected.num_or("retry_after_ms", 0), 40.0);
  EXPECT_EQ(rejected.num_or("queue_depth", 0), 16.0);
  const Json accepted = svc::make_accepted(5, 3, 16);
  EXPECT_EQ(accepted.str_or("type", ""), "accepted");
  EXPECT_EQ(accepted.num_or("queue_depth", -1), 3.0);
}

}  // namespace
