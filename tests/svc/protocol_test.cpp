// The wire protocol: request parsing/rendering (exact, range-checked
// integers included), and response builders.  The JSON value itself is
// tested in tests/base/json_test.cpp.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"

namespace {

using namespace tir;

/// A predict request that sets every field parse_request reads.
svc::JobRequest full_request() {
  svc::JobRequest r;
  r.op = "predict";
  r.trace = "lu.titb";
  r.nprocs = 8;
  r.platform = "cluster.txt";
  r.metrics = true;
  r.perturb = "seed=5;host.speed=uniform:0.3";
  r.mc_replicates = 3;
  r.calibrate = true;
  r.calibration.procedure = "auto";
  r.calibration.classes = "C";
  r.calibration.iterations = 3;
  r.calibration.noise = 0.02;
  r.calibration.seed = 7;
  r.calibration.auto_steps = 5;
  r.calibration.probe_instructions = 1e9;
  r.calibration.instance_class = 'B';
  r.calibration.instance_nprocs = 16;
  r.calibration.truth.rate_in_cache = 2.5e9;
  r.calibration.truth.rate_out_of_cache = 1.2e9;
  r.calibration.truth.l2_bytes = 1 << 20;
  r.calibration.truth.copy_rate = 4e9;
  r.calibration.truth.per_message_overhead = 1e-6;
  svc::ScenarioSpec a;
  a.label = "a";
  a.rates = {1e9, 2e9};
  svc::ScenarioSpec b;
  b.label = "b";
  b.backend = core::Backend::Msg;
  b.rates = {3e9};
  b.contention = true;
  b.watchdog_seconds = 2.5;
  r.scenarios = {a, b};
  return r;
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

// The results memo keys on content_key: the request as the server parsed
// it must key exactly as the client's request did, and the identity fields
// (id, deadline, idem) must not count.
TEST(SvcProtocol, ContentKeySurvivesTheWire) {
  svc::JobRequest minimal;
  minimal.op = "predict";
  minimal.trace = "t.titb";
  minimal.scenarios.emplace_back().rates = {1e9};
  for (const svc::JobRequest& r : {full_request(), minimal}) {
    EXPECT_EQ(svc::content_key(svc::parse_request(svc::render_request(r))), svc::content_key(r));
    svc::JobRequest stamped = r;
    stamped.id = 42;
    stamped.deadline_ms = 250.0;
    stamped.idem_key = svc::content_key(r);
    EXPECT_EQ(svc::content_key(svc::parse_request(svc::render_request(stamped))),
              svc::content_key(r));
  }
}

// Every field parse_request reads into the answer moves the key, so no two
// different questions share a memo entry.
TEST(SvcProtocol, ContentKeyMovesWithEveryParsedField) {
  using Edit = std::function<void(svc::JobRequest&)>;
  const std::pair<const char*, Edit> edits[] = {
      {"trace", [](auto& r) { r.trace = "other.titb"; }},
      {"nprocs", [](auto& r) { r.nprocs = 16; }},
      {"platform", [](auto& r) { r.platform = "other.txt"; }},
      {"metrics", [](auto& r) { r.metrics = false; }},
      {"perturb", [](auto& r) { r.perturb = "seed=6;host.speed=uniform:0.3"; }},
      {"mc_replicates", [](auto& r) { r.mc_replicates = 4; }},
      {"calibration", [](auto& r) { r.calibrate = false; }},
      {"procedure", [](auto& r) { r.calibration.procedure = "classic"; }},
      {"classes", [](auto& r) { r.calibration.classes = "BC"; }},
      {"iterations", [](auto& r) { r.calibration.iterations = 4; }},
      {"noise", [](auto& r) { r.calibration.noise = 0.03; }},
      {"seed", [](auto& r) { r.calibration.seed = 8; }},
      {"auto_steps", [](auto& r) { r.calibration.auto_steps = 6; }},
      {"probe_instructions", [](auto& r) { r.calibration.probe_instructions = 2e9; }},
      {"instance_class", [](auto& r) { r.calibration.instance_class = 'C'; }},
      {"instance_nprocs", [](auto& r) { r.calibration.instance_nprocs = 32; }},
      {"rate_in_cache", [](auto& r) { r.calibration.truth.rate_in_cache = 2.6e9; }},
      {"rate_out_of_cache", [](auto& r) { r.calibration.truth.rate_out_of_cache = 1.3e9; }},
      {"l2_bytes", [](auto& r) { r.calibration.truth.l2_bytes = 1 << 21; }},
      {"copy_rate", [](auto& r) { r.calibration.truth.copy_rate = 5e9; }},
      {"per_message_overhead",
       [](auto& r) { r.calibration.truth.per_message_overhead = 2e-6; }},
      {"label", [](auto& r) { r.scenarios[0].label = "c"; }},
      {"backend", [](auto& r) { r.scenarios[0].backend = core::Backend::Msg; }},
      {"rates", [](auto& r) { r.scenarios[0].rates[1] = 4e9; }},
      {"no rates", [](auto& r) { r.scenarios[0].rates.clear(); }},
      {"contention", [](auto& r) { r.scenarios[1].contention = false; }},
      {"watchdog_seconds", [](auto& r) { r.scenarios[1].watchdog_seconds = 3.0; }},
      {"scenario order", [](auto& r) { std::swap(r.scenarios[0], r.scenarios[1]); }},
  };
  const svc::JobRequest base = full_request();
  for (const auto& [field, edit] : edits) {
    svc::JobRequest changed = base;
    edit(changed);
    const svc::JobRequest parsed = svc::parse_request(svc::render_request(changed));
    EXPECT_NE(svc::content_key(parsed), svc::content_key(base)) << field;
    EXPECT_EQ(svc::content_key(parsed), svc::content_key(changed)) << field;
  }
}

// Seeded byte and token mutations of request lines: each must parse, or
// throw a typed tir::Error the server turns into an error line.  A parsed
// mutant must key the same after another trip over the wire.
TEST(SvcRequestFuzz, MutatedLinesParseOrThrowTypedErrors) {
  svc::JobRequest calibrated_only;
  calibrated_only.op = "predict";
  calibrated_only.trace = "t.titb";
  calibrated_only.calibrate = true;
  calibrated_only.calibration.truth.rate_in_cache = 1e9;
  calibrated_only.scenarios.emplace_back().label = "calibrated";
  const std::string seeds[] = {svc::render_request(full_request()),
                               svc::render_request(calibrated_only),
                               R"({"op":"stats"})"};
  const char* tokens[] = {"null", "true", "false", "0", "-1", "-0", "0.5", "1e308", "1e999",
                          "2147483648", "18446744073709551616", "\"\"", "\"x\"",
                          "\"\\u0000\"", "\"\\ud800\"", "[]", "{}", "[1e9,-1]",
                          "{\"rate_in_cache\":0}", "\"seed=1;host.speed=uniform:9\"",
                          "\"msg\"", "\"A\"", ""};
  rng::Sequence random(20261020);
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(random.next_u64() % n);
  };
  std::size_t parsed = 0;
  constexpr int kMutants = 6000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = seeds[below(std::size(seeds))];
    for (std::size_t edits = 1 + below(3); edits > 0; --edits) {
      const std::size_t at = below(line.size());
      switch (below(6)) {
        case 0:  // overwrite a byte
          if (!line.empty()) line[at] = static_cast<char>(random.next_u64());
          break;
        case 1:  // insert a byte
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(random.next_u64()));
          break;
        case 2:  // delete a run of bytes
          line.erase(at, 1 + below(8));
          break;
        case 3:  // truncate
          line.resize(at);
          break;
        default: {  // replace the value after a ':' or in a list by a token
          const std::size_t start = line.find_first_of(":[,", at);
          if (start == std::string::npos) break;
          const std::size_t end = line.find_first_of(",]}", start + 1);
          line.replace(start + 1, (end == std::string::npos ? line.size() : end) - start - 1,
                       tokens[below(std::size(tokens))]);
        }
      }
    }
    try {
      const svc::JobRequest request = svc::parse_request(line);
      ++parsed;
      if (request.op == "predict") {
        EXPECT_EQ(svc::content_key(svc::parse_request(svc::render_request(request))),
                  svc::content_key(request))
            << line;
      }
    } catch (const Error&) {
      // typed: the server answers with an error line
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << e.what() << " from: " << line;
    }
  }
  // The mutations must leave some lines parseable, or the round-trip check
  // above tested nothing.
  EXPECT_GT(parsed, kMutants / 20);
}

// Wire integers are read exactly and range-checked: a fraction, a value
// that does not fit the field, or a huge exponent is a ConfigError naming
// the key, never a silent truncation; a 64-bit seed survives the round trip.
TEST(SvcProtocol, WireIntegersAreExactAndRangeChecked) {
  const std::string head = R"({"op":"predict","trace":"t","scenarios":[{"rates":1e9}],)";
  const auto calibration = [&](const std::string& field) {
    return head + R"("calibration":{)" + field + R"(,"truth":{"rate_in_cache":1e9}}})";
  };
  const std::pair<const char*, std::string> bad[] = {
      {"nprocs", head + R"("nprocs":2.5})"},
      {"nprocs", head + R"("nprocs":4294967298})"},
      {"nprocs", head + R"("nprocs":-2147483649})"},
      {"mc_replicates", head + R"("perturb":"host.speed=uniform:0.05","mc_replicates":1e300})"},
      {"iterations", calibration(R"("iterations":1e300)")},
      {"auto_steps", calibration(R"("auto_steps":0.5)")},
      {"instance_nprocs", calibration(R"("instance_nprocs":1e10)")},
      {"seed", calibration(R"("seed":-1)")},
      {"seed", calibration(R"("seed":18446744073709551616)")},
      {"seed", calibration(R"("seed":1.5)")}};
  for (const auto& [key, line] : bad) {
    try {
      (void)svc::parse_request(line);
      ADD_FAILURE() << line << " parsed";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "' must be an integer"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(svc::parse_request(head + R"("nprocs":8.0})").nprocs, 8);
  EXPECT_EQ(svc::parse_request(calibration(R"("seed":9007199254740993)")).calibration.seed,
            9007199254740993u);
  // The existing range rules still hold.
  EXPECT_THROW(svc::parse_request(head + R"("mc_replicates":-1})"), ConfigError);

  svc::JobRequest r;
  r.op = "predict";
  r.trace = "t.titb";
  r.calibrate = true;
  r.calibration.truth.rate_in_cache = 1e9;
  for (const std::uint64_t seed :
       {std::uint64_t{9007199254740993u}, std::numeric_limits<std::uint64_t>::max()}) {
    r.calibration.seed = seed;
    EXPECT_EQ(svc::parse_request(svc::render_request(r)).calibration.seed, seed);
  }
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
