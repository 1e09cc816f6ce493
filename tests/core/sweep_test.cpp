// core::sweep: the determinism contract (per-scenario results bit-identical
// at any worker count), fail isolation, input-order outcomes, the
// per-session-sink pattern, and the extra-rates config
// warning surfaced through the sink.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include "apps/cg.hpp"
#include "exp/experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"

namespace tir::core {
namespace {

platform::Platform cluster(int n) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  return p;
}

titio::SharedTrace shared_cg(int nprocs = 4, int iterations = 5) {
  apps::CgConfig cg;
  cg.nprocs = nprocs;
  cg.iterations = iterations;
  return titio::SharedTrace(apps::cg_trace(cg));
}

/// 32 scenarios over one platform: a rate ladder crossed with both
/// back-ends, the grid a real calibration-sensitivity sweep replays.
std::vector<Scenario> grid32(const platform::Platform& p) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 32; ++i) {
    Scenario sc;
    sc.platform = &p;
    sc.config.rates = {1e9 * (1.0 + 0.1 * i)};
    sc.backend = i % 2 == 0 ? Backend::Smpi : Backend::Msg;
    sc.label = "s" + std::to_string(i);
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

void expect_same_timeline(const obs::TimelineSink& a, const obs::TimelineSink& b,
                          const std::string& label) {
  ASSERT_EQ(a.nranks(), b.nranks()) << label;
  for (int r = 0; r < a.nranks(); ++r) {
    const std::vector<obs::Interval>& ia = a.intervals(r);
    const std::vector<obs::Interval>& ib = b.intervals(r);
    ASSERT_EQ(ia.size(), ib.size()) << label << " rank " << r;
    for (std::size_t k = 0; k < ia.size(); ++k) {
      EXPECT_EQ(ia[k].state, ib[k].state) << label << " rank " << r << " interval " << k;
      EXPECT_EQ(ia[k].begin, ib[k].begin) << label << " rank " << r << " interval " << k;
      EXPECT_EQ(ia[k].end, ib[k].end) << label << " rank " << r << " interval " << k;
      EXPECT_EQ(ia[k].bytes, ib[k].bytes) << label << " rank " << r << " interval " << k;
      EXPECT_EQ(ia[k].partner, ib[k].partner) << label << " rank " << r << " interval " << k;
    }
  }
}

TEST(Sweep, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
}

TEST(Sweep, EmptyScenarioListYieldsEmptyOutcomes) {
  const titio::SharedTrace trace = shared_cg();
  EXPECT_TRUE(sweep(trace, {}).empty());
}

// The tentpole contract: a 32-scenario sweep at jobs 1, 2 and 8 produces
// bit-identical per-scenario results — simulated time, engine steps, action
// counts and full per-rank timelines.  Parallelism is across scenarios,
// never inside one, so worker count must be unobservable in the results.
TEST(Sweep, DifferentialAcrossJobCounts) {
  const titio::SharedTrace trace = shared_cg();
  const platform::Platform p = cluster(4);
  const std::vector<Scenario> base = grid32(p);

  struct Leg {
    std::vector<ScenarioOutcome> outcomes;
    std::vector<obs::TimelineSink> sinks;
  };
  const auto run_leg = [&](int jobs) {
    Leg leg;
    leg.sinks = std::vector<obs::TimelineSink>(base.size());
    std::vector<Scenario> scenarios = base;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      scenarios[i].config.sink = &leg.sinks[i];
    }
    SweepOptions options;
    options.jobs = jobs;
    leg.outcomes = sweep(trace, scenarios, options);
    return leg;
  };

  const Leg jobs1 = run_leg(1);
  ASSERT_EQ(jobs1.outcomes.size(), base.size());
  for (std::size_t i = 0; i < jobs1.outcomes.size(); ++i) {
    ASSERT_TRUE(jobs1.outcomes[i].ok) << jobs1.outcomes[i].error;
    EXPECT_EQ(jobs1.outcomes[i].label, base[i].label);  // input order preserved
    EXPECT_GT(jobs1.outcomes[i].result.actions_replayed, 0u);
  }

  for (const int jobs : {2, 8}) {
    const Leg legN = run_leg(jobs);
    ASSERT_EQ(legN.outcomes.size(), jobs1.outcomes.size());
    for (std::size_t i = 0; i < legN.outcomes.size(); ++i) {
      ASSERT_TRUE(legN.outcomes[i].ok) << legN.outcomes[i].error;
      EXPECT_EQ(legN.outcomes[i].label, jobs1.outcomes[i].label);
      EXPECT_EQ(legN.outcomes[i].result.simulated_time,
                jobs1.outcomes[i].result.simulated_time)
          << "jobs=" << jobs << " scenario " << i;
      EXPECT_EQ(legN.outcomes[i].result.engine_steps, jobs1.outcomes[i].result.engine_steps);
      EXPECT_EQ(legN.outcomes[i].result.actions_replayed,
                jobs1.outcomes[i].result.actions_replayed);
      expect_same_timeline(jobs1.sinks[i], legN.sinks[i],
                           "jobs=" + std::to_string(jobs) + " " + base[i].label);
    }
  }
}

// One scenario throwing mid-sweep (a non-positive calibrated rate fails
// ReplayConfig::check) must not disturb the others, at any worker count.
TEST(Sweep, FailedScenarioIsIsolated) {
  const titio::SharedTrace trace = shared_cg();
  const platform::Platform p = cluster(4);
  std::vector<Scenario> scenarios = grid32(p);
  scenarios[13].config.rates = {-1.0};

  for (const int jobs : {1, 8}) {
    SweepOptions options;
    options.jobs = jobs;
    const std::vector<ScenarioOutcome> outcomes = sweep(trace, scenarios, options);
    ASSERT_EQ(outcomes.size(), scenarios.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i == 13) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_EQ(outcomes[i].error_code, ErrorCode::Config);
        EXPECT_NE(outcomes[i].error.find("not positive"), std::string::npos)
            << outcomes[i].error;
      } else {
        EXPECT_TRUE(outcomes[i].ok) << "jobs=" << jobs << ": " << outcomes[i].error;
        EXPECT_GT(outcomes[i].result.actions_replayed, 0u);
      }
    }
  }
}

TEST(Sweep, NullPlatformBecomesConfigOutcome) {
  const titio::SharedTrace trace = shared_cg();
  Scenario sc;
  sc.config.rates = {1e9};
  sc.label = "no-platform";
  const std::vector<ScenarioOutcome> outcomes = sweep(trace, {sc});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].error_code, ErrorCode::Config);
}

// The per-session-sink pattern: every scenario gets its own TimelineSink,
// and on_scenario_done aggregates it from whichever worker finished the
// scenario; each report matches its own scenario's outcome.
TEST(Sweep, AggregatorCollectsEveryScenario) {
  const titio::SharedTrace trace = shared_cg();
  const platform::Platform p = cluster(4);
  std::vector<Scenario> scenarios = grid32(p);
  std::vector<obs::TimelineSink> sinks(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) scenarios[i].config.sink = &sinks[i];

  std::vector<obs::MetricsReport> reports(scenarios.size());
  std::vector<int> recorded(scenarios.size(), 0);
  SweepOptions options;
  options.jobs = 8;
  options.on_scenario_done = [&](std::size_t i, const ScenarioOutcome& outcome) {
    // Each index is written by exactly one worker: no lock needed.
    if (outcome.ok) reports[i] = obs::aggregate(sinks[i]);
    ++recorded[i];
  };
  const std::vector<ScenarioOutcome> outcomes = sweep(trace, scenarios, options);
  for (const ScenarioOutcome& o : outcomes) ASSERT_TRUE(o.ok) << o.error;

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(recorded[i], 1) << i;
    EXPECT_EQ(outcomes[i].label, scenarios[i].label);
    EXPECT_EQ(reports[i].simulated_time, outcomes[i].result.simulated_time) << i;
    EXPECT_GT(reports[i].steps, 0u) << i;
  }
}

// Satellite: more calibrated rates than ranks used to pass silently; the
// check now reports the unreachable entries through the session's sink.
TEST(Sweep, ExtraRatesWarningReachesSink) {
  const titio::SharedTrace trace = shared_cg(/*nprocs=*/4);
  const platform::Platform p = cluster(4);
  obs::TimelineSink sink;
  Scenario sc;
  sc.platform = &p;
  sc.config.rates = {1e9, 1e9, 1e9, 1e9, 2e9, 3e9};  // 6 rates, 4 ranks
  sc.config.sink = &sink;
  sc.label = "extra-rates";
  const std::vector<ScenarioOutcome> outcomes = sweep(trace, {sc});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;  // a warning, not an error
  ASSERT_EQ(sink.warnings().size(), 1u);
  EXPECT_NE(sink.warnings()[0].find("2 entrie(s) are unreachable"), std::string::npos)
      << sink.warnings()[0];
}

// Satellite: N scenarios sharing a misconfiguration used to shout the same
// warning N times.  The sweep-owned WarningDedupe now lets the first
// session through and mutes the repeats — exactly one warning lands across
// ALL the sweep's sinks, at any worker count; a later sweep starts fresh.
TEST(Sweep, DuplicateConfigWarningReportedOncePerSweep) {
  const titio::SharedTrace trace = shared_cg(/*nprocs=*/4);
  const platform::Platform p = cluster(4);

  for (const int jobs : {1, 4}) {
    std::vector<obs::TimelineSink> sinks(8);
    std::vector<Scenario> scenarios;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      Scenario sc;
      sc.platform = &p;
      sc.config.rates = {1e9, 1e9, 1e9, 1e9, 2e9, 3e9};  // same warning everywhere
      sc.config.sink = &sinks[i];
      sc.label = "dup" + std::to_string(i);
      scenarios.push_back(std::move(sc));
    }
    SweepOptions options;
    options.jobs = jobs;
    const std::vector<ScenarioOutcome> outcomes = sweep(trace, scenarios, options);
    std::size_t warnings = 0;
    for (const ScenarioOutcome& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
    for (const obs::TimelineSink& s : sinks) warnings += s.warnings().size();
    EXPECT_EQ(warnings, 1u) << "jobs=" << jobs;
  }
}

// Cancellation (the service's per-job deadline rides on this): a cancelled
// token turns every not-yet-started scenario into a Cancelled outcome while
// keeping labels and input order; already-produced outcomes are untouched.
TEST(Sweep, CancelTokenStopsRemainingScenarios) {
  const titio::SharedTrace trace = shared_cg();
  const platform::Platform p = cluster(4);
  const std::vector<Scenario> scenarios = grid32(p);

  CancelToken token;
  token.cancel();
  SweepOptions options;
  options.jobs = 4;
  options.cancel = &token;
  const std::vector<ScenarioOutcome> outcomes = sweep(trace, scenarios, options);
  ASSERT_EQ(outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].ok);
    EXPECT_EQ(outcomes[i].error_code, ErrorCode::Cancelled);
    EXPECT_EQ(outcomes[i].label, scenarios[i].label);
  }
}

TEST(Sweep, CancelMidSweepLeavesDefiniteOutcomeForEveryScenario) {
  const titio::SharedTrace trace = shared_cg();
  const platform::Platform p = cluster(4);
  const std::vector<Scenario> scenarios = grid32(p);

  CancelToken token;
  SweepOptions options;
  options.jobs = 2;
  options.cancel = &token;
  options.on_scenario_done = [&](std::size_t i, const ScenarioOutcome&) {
    if (i == 4) token.cancel();  // pull the plug partway through
  };
  const std::vector<ScenarioOutcome> outcomes = sweep(trace, scenarios, options);
  ASSERT_EQ(outcomes.size(), scenarios.size());
  std::size_t completed = 0, cancelled = 0;
  for (const ScenarioOutcome& o : outcomes) {
    if (o.ok) {
      ++completed;
      EXPECT_GT(o.result.actions_replayed, 0u);
    } else {
      ++cancelled;
      EXPECT_EQ(o.error_code, ErrorCode::Cancelled);
    }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(completed + cancelled, scenarios.size());
}

TEST(Sweep, ExpiredDeadlineTokenReportsCancelled) {
  CancelToken immediate(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(immediate.cancelled());
  CancelToken future(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(future.cancelled());
  future.cancel();  // explicit cancel overrides the far deadline
  EXPECT_TRUE(future.cancelled());
}

TEST(Sweep, RateLadderSpansTheRequestedRange) {
  const platform::Platform p = cluster(4);
  const std::vector<Scenario> ladder = exp::rate_ladder(p, 2e9, 16, 2.0);
  ASSERT_EQ(ladder.size(), 16u);
  EXPECT_NEAR(ladder.front().config.rates[0], 1e9, 1e3);
  EXPECT_NEAR(ladder.back().config.rates[0], 4e9, 1e3);
  for (const Scenario& sc : ladder) EXPECT_EQ(sc.platform.get(), &p);
  EXPECT_THROW(exp::rate_ladder(p, -1.0, 4), ConfigError);
  EXPECT_THROW(exp::rate_ladder(p, 1e9, 0), ConfigError);
}

}  // namespace
}  // namespace tir::core
