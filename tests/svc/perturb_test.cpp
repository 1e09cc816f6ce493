// Perturbed jobs against a live server: the cache-key regression (two jobs
// differing only in perturbation spec/seed must never collide to one cached
// calibration), Monte Carlo expansion over replicate seeds with aggregate
// quantiles on the done line, the golden wire bytes of a fixed job
// sequence, and wire-level validation of the perturb fields.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "platform/clusters.hpp"
#include "support/golden.hpp"
#include "support/temp_dir.hpp"
#include "support/wire.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "tit/trace.hpp"
#include "titio/writer.hpp"

namespace tir::svc {
namespace {

namespace fs = std::filesystem;

class SvcPerturb : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("tird_perturb_test");
    trace_path_ = (dir_ / "t.titb").string();
    titio::write_binary_trace(tit::parse_trace_string(
                                  "p0 compute 1e9\n"
                                  "p0 send p1 65536\n"
                                  "p1 recv p0 65536\n"
                                  "p1 compute 2e9\n",
                                  2),
                              trace_path_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string endpoint(const char* name) const { return "unix:" + (dir_ / name).string(); }

  JobRequest perturbed_job(const std::string& spec) const {
    JobRequest request;
    request.op = "predict";
    request.trace = trace_path_;
    ScenarioSpec scenario;
    scenario.label = "s";
    scenario.contention = true;  // keep the links load-bearing for the spread
    request.scenarios.push_back(scenario);
    request.calibrate = true;
    request.calibration.procedure = "cache-aware";
    request.calibration.iterations = 2;
    request.calibration.truth = platform::bordereau_truth();
    request.calibration.instance_class = 'A';
    request.calibration.instance_nprocs = 2;
    request.perturb = spec;
    return request;
  }

  fs::path dir_;
  std::string trace_path_;
};

// The satellite regression: same trace, same calibration, same scenario —
// only the perturbation seed differs.  Each job must compute its own
// calibration on its own sampled instance, and the predictions must differ
// because the sampled machines differ.
TEST_F(SvcPerturb, TwoSeedsNeverShareCacheEntries) {
  ServerOptions options;
  options.endpoint = endpoint("twoseed.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  const JobResult first =
      client.submit(perturbed_job("seed=1;host.speed=uniform:0.4;link.bw=uniform:0.4"));
  ASSERT_TRUE(first.done) << first.error;
  EXPECT_EQ(first.started.str_or("calibration_cache", ""), "miss");

  const JobResult second =
      client.submit(perturbed_job("seed=2;host.speed=uniform:0.4;link.bw=uniform:0.4"));
  ASSERT_TRUE(second.done) << second.error;
  // The collision this test guards against answered the second job from the
  // first job's calibration entry ("hit").
  EXPECT_EQ(second.started.str_or("calibration_cache", ""), "miss");
  EXPECT_EQ(server.calibration_cache_stats().misses, 2u);
  EXPECT_EQ(server.calibration_cache_stats().hits, 0u);
  // Only the base platform is cached (sampled instances are rebuilt per
  // job): one miss, then a hit.
  EXPECT_EQ(server.platform_cache_stats().misses, 1u);

  ASSERT_EQ(first.scenarios.size(), 1u);
  ASSERT_EQ(second.scenarios.size(), 1u);
  EXPECT_NE(first.scenarios[0].num_or("simulated_time", -1),
            second.scenarios[0].num_or("simulated_time", -1));

  // Re-submitting seed 1 verbatim is the legitimate hit path — and it must
  // be bit-identical to the first run.
  const JobResult replay =
      client.submit(perturbed_job("seed=1;host.speed=uniform:0.4;link.bw=uniform:0.4"));
  ASSERT_TRUE(replay.done) << replay.error;
  EXPECT_EQ(replay.started.str_or("calibration_cache", ""), "hit");
  EXPECT_EQ(replay.scenarios[0].num_or("simulated_time", -1),
            first.scenarios[0].num_or("simulated_time", -2));
}

// An unperturbed job and a perturbed job over the same platform file must
// not collide either (the perturbed key folds the spec hash).
TEST_F(SvcPerturb, PerturbedNeverCollidesWithUnperturbed) {
  ServerOptions options;
  options.endpoint = endpoint("mixed.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  JobRequest plain = perturbed_job("");
  plain.perturb.clear();
  const JobResult base = client.submit(plain);
  ASSERT_TRUE(base.done) << base.error;
  EXPECT_EQ(base.started.str_or("calibration_cache", ""), "miss");

  const JobResult perturbed = client.submit(perturbed_job("seed=7;host.speed=uniform:0.4"));
  ASSERT_TRUE(perturbed.done) << perturbed.error;
  EXPECT_EQ(perturbed.started.str_or("calibration_cache", ""), "miss");
  EXPECT_EQ(server.calibration_cache_stats().hits, 0u);
}

TEST_F(SvcPerturb, McReplicatesExpandAndAggregate) {
  ServerOptions options;
  options.endpoint = endpoint("mc.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  JobRequest request = perturbed_job("seed=5;host.speed=uniform:0.3;link.bw=uniform:0.3");
  request.mc_replicates = 4;
  const JobResult result = client.submit(request);
  ASSERT_TRUE(result.done) << result.error;
  ASSERT_EQ(result.scenarios.size(), 4u);  // 1 spec x 4 replicate seeds
  for (const Json& line : result.scenarios) EXPECT_TRUE(line.bool_or("ok", false));

  const Json mc = result.epilogue.get("mc");
  ASSERT_TRUE(mc.is_object());
  EXPECT_EQ(mc.get("seeds").size(), 4u);
  const Json group = mc.get("scenarios").at(0);
  EXPECT_EQ(group.num_or("n", 0), 4.0);
  EXPECT_LE(group.num_or("min", 0), group.num_or("p50", -1));
  EXPECT_LE(group.num_or("p50", 0), group.num_or("max", -1));
  EXPECT_GT(group.num_or("stddev", 0), 0.0);  // the platforms really differ

  // Determinism across submissions: the whole grid is a pure function of
  // the request, so a resubmission aggregates bit-identically.
  const JobResult again = client.submit(request);
  ASSERT_TRUE(again.done) << again.error;
  EXPECT_EQ(again.epilogue.get("mc").dump(), result.epilogue.get("mc").dump());
}

// The wire bytes of perturbed jobs, pinned (tests/svc/golden/
// perturbed_jobs.txt): every started, scenario and done line of a fixed job
// sequence on one worker, timing fields masked.  Regenerate after an
// intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_svc --gtest_filter='SvcPerturb.GoldenStream*'
TEST_F(SvcPerturb, GoldenStreamIsByteIdentical) {
  ServerOptions options;
  options.endpoint = endpoint("golden.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  // 2 rates x 5 seeds with contention, then the same grid with metrics.
  JobRequest rated = perturbed_job("seed=3;host.speed=uniform:0.2;link.bw=lognormal:0.3");
  rated.calibrate = false;
  rated.scenarios.clear();
  for (const double rate : {1e9, 2e9}) {
    ScenarioSpec scenario;
    scenario.label = rate == 1e9 ? "slow" : "fast";
    scenario.rates = {rate};
    scenario.contention = true;
    rated.scenarios.push_back(scenario);
  }
  rated.mc_replicates = 5;
  JobRequest metrics = rated;
  metrics.metrics = true;
  // Cache-aware calibration on the first seed's instance, 3 seeds: the
  // second submission is the calibration cache hit.
  JobRequest calibrated = perturbed_job("seed=4;host.speed=uniform:0.3;link.lat=normal:0.1");
  calibrated.mc_replicates = 3;
  // One replicate on the MSG back-end.
  JobRequest msg = rated;
  msg.scenarios.resize(1);
  msg.scenarios[0].backend = core::Backend::Msg;
  msg.mc_replicates = 1;
  // An inactive spec with no mc_replicates still expands to one seed.
  JobRequest inactive = rated;
  inactive.perturb = "seed=9";
  inactive.mc_replicates = 0;

  std::string got;
  for (const JobRequest* request : {&rated, &metrics, &calibrated, &calibrated, &msg, &inactive}) {
    const JobResult result = client.submit(*request);
    ASSERT_TRUE(result.done) << result.error;
    got += test::without_timings(result.started) + "\n";
    for (const Json& line : result.scenarios) got += test::without_timings(line) + "\n";
    got += test::without_timings(result.epilogue) + "\n";
  }
  test::expect_matches_golden(std::string(TIR_SVC_GOLDEN_DIR) + "/perturbed_jobs.txt", got);
}

TEST(SvcPerturbWire, MalformedSpecAndReplicatesAreRejected) {
  JobRequest request;
  request.op = "predict";
  request.trace = "t.titb";
  ScenarioSpec scenario;
  scenario.rates = {1e9};
  request.scenarios.push_back(scenario);
  request.perturb = "seed=5;host.speed=uniform:0.3";
  request.mc_replicates = 3;
  const JobRequest parsed = parse_request(render_request(request));
  EXPECT_EQ(parsed.perturb, request.perturb);
  EXPECT_EQ(parsed.mc_replicates, 3);
  // The perturb fields are request content: they must move the content key.
  JobRequest other = request;
  other.mc_replicates = 4;
  EXPECT_NE(content_key(request), content_key(other));
  JobRequest reseeded = request;
  reseeded.perturb = "seed=6;host.speed=uniform:0.3";
  EXPECT_NE(content_key(request), content_key(reseeded));

  request.perturb = "host.speed=gauss:0.3";  // unknown distribution
  EXPECT_THROW(parse_request(render_request(request)), ConfigError);
  // render_request omits invalid combinations, so the malformed-field cases
  // go over the wire by hand.
  EXPECT_THROW(parse_request(R"({"op":"predict","trace":"t","scenarios":[{"rates":1e9}],)"
                             R"("perturb":"seed=5;host.speed=uniform:0.3",)"
                             R"("mc_replicates":-1})"),
               ConfigError);
  EXPECT_THROW(parse_request(R"({"op":"predict","trace":"t","scenarios":[{"rates":1e9}],)"
                             R"("mc_replicates":2})"),
               ConfigError);
}

}  // namespace
}  // namespace tir::svc
