// core::mc_sweep: the differential determinism contract (an N-seed Monte
// Carlo grid over both back-ends is bit-identical — per replicate AND in the
// aggregate quantiles — at any worker count), seed-grid derivation, failure
// isolation, and the tornado ranking (a deliberately dominant parameter must
// come out on top).
#include "core/mc_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "apps/cg.hpp"
#include "platform/clusters.hpp"
#include "support/golden.hpp"

namespace tir::core {
namespace {

std::shared_ptr<const platform::Platform> cluster(int n) {
  auto p = std::make_shared<platform::Platform>();
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(*p, spec);
  return p;
}

titio::SharedTrace shared_cg(int nprocs = 4, int iterations = 5) {
  apps::CgConfig cg;
  cg.nprocs = nprocs;
  cg.iterations = iterations;
  return titio::SharedTrace(apps::cg_trace(cg));
}

std::vector<McScenario> both_backends(const std::shared_ptr<const platform::Platform>& p,
                                      const platform::PerturbationSpec& spec) {
  std::vector<McScenario> scenarios;
  for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
    McScenario sc;
    sc.model = platform::PlatformModel(p, spec);
    sc.config.rates = {1.5e9};
    sc.config.sharing = sim::Sharing::MaxMin;  // keep the links load-bearing
    sc.backend = backend;
    sc.label = backend == Backend::Smpi ? "smpi" : "msg";
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

void expect_reports_identical(const McReport& a, const McReport& b, const std::string& what) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size()) << what;
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    const McScenarioReport& ra = a.scenarios[s];
    const McScenarioReport& rb = b.scenarios[s];
    EXPECT_EQ(ra.label, rb.label) << what;
    ASSERT_EQ(ra.replicates.size(), rb.replicates.size()) << what << " " << ra.label;
    for (std::size_t r = 0; r < ra.replicates.size(); ++r) {
      EXPECT_EQ(ra.replicates[r].seed, rb.replicates[r].seed) << what << " " << ra.label;
      EXPECT_EQ(ra.replicates[r].outcome.ok, rb.replicates[r].outcome.ok)
          << what << " " << ra.label;
      // Bitwise, not approximate: the contract is bit-identical replay.
      EXPECT_EQ(ra.replicates[r].outcome.result.simulated_time,
                rb.replicates[r].outcome.result.simulated_time)
          << what << " " << ra.label << " replicate " << r;
    }
    const stats::Summary& da = ra.simulated_time;
    const stats::Summary& db = rb.simulated_time;
    EXPECT_EQ(da.n, db.n) << what;
    EXPECT_EQ(da.mean, db.mean) << what;
    EXPECT_EQ(da.stddev, db.stddev) << what;
    EXPECT_EQ(da.p5, db.p5) << what;
    EXPECT_EQ(da.p50, db.p50) << what;
    EXPECT_EQ(da.p95, db.p95) << what;
    EXPECT_EQ(da.ci95_lo, db.ci95_lo) << what;
    EXPECT_EQ(da.ci95_hi, db.ci95_hi) << what;
  }
}

TEST(McSweep, SeedGrid) {
  platform::PerturbationSpec spec;
  spec.seed = 42;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.1};

  McOptions derived;
  derived.replicates = 4;
  const std::vector<std::uint64_t> grid = mc_seed_grid(spec, derived);
  ASSERT_EQ(grid.size(), 4u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i], spec.replicate_seed(i));
    for (std::size_t j = i + 1; j < grid.size(); ++j) EXPECT_NE(grid[i], grid[j]);
  }

  McOptions explicit_seeds;
  explicit_seeds.seeds = {7, 9, 7};  // verbatim, duplicates and all
  EXPECT_EQ(mc_seed_grid(spec, explicit_seeds), explicit_seeds.seeds);

  // No grid size at all is an error, not a silent empty sweep.
  EXPECT_THROW(mc_seed_grid(spec, McOptions{}), ConfigError);
}

// The acceptance gate: an N-seed grid over BOTH back-ends, run at jobs
// 1, 2 and 8, must agree bitwise per replicate and in every aggregate
// quantile — and the rendered JSON report must be byte-identical.
TEST(McSweep, GridIsBitIdenticalAtAnyJobCount) {
  const titio::SharedTrace trace = shared_cg();
  const auto p = cluster(4);
  platform::PerturbationSpec spec;
  spec.seed = 3;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.2};
  spec.link_bandwidth = {platform::Distribution::Kind::LogNormal, 0.3};
  const std::vector<McScenario> scenarios = both_backends(p, spec);

  McOptions options;
  options.replicates = 6;
  options.jobs = 1;
  const McReport jobs1 = mc_sweep(trace, scenarios, options);
  options.jobs = 2;
  const McReport jobs2 = mc_sweep(trace, scenarios, options);
  options.jobs = 8;
  const McReport jobs8 = mc_sweep(trace, scenarios, options);

  ASSERT_EQ(jobs1.scenarios.size(), 2u);
  for (const McScenarioReport& sr : jobs1.scenarios) {
    EXPECT_EQ(sr.failures, 0u);
    ASSERT_EQ(sr.replicates.size(), 6u);
    EXPECT_EQ(sr.simulated_time.n, 6u);
    // The platforms really differ: a degenerate spread would make the
    // bit-identity assertions below vacuous.
    EXPECT_GT(sr.simulated_time.stddev, 0.0);
    EXPECT_LE(sr.simulated_time.min, sr.simulated_time.p50);
    EXPECT_LE(sr.simulated_time.p50, sr.simulated_time.max);
    EXPECT_LE(sr.simulated_time.ci95_lo, sr.simulated_time.mean);
    EXPECT_LE(sr.simulated_time.mean, sr.simulated_time.ci95_hi);
  }
  expect_reports_identical(jobs1, jobs2, "jobs1 vs jobs2");
  expect_reports_identical(jobs1, jobs8, "jobs1 vs jobs8");
  EXPECT_EQ(mc_report_json(jobs1), mc_report_json(jobs8));

  // And the back-ends see the SAME sampled platforms: the grid is keyed by
  // seed, not by scenario position, so both groups share the seed column.
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(jobs1.scenarios[0].replicates[r].seed, jobs1.scenarios[1].replicates[r].seed);
  }
}

TEST(McSweep, InactiveSpecCollapsesToThePointPrediction) {
  const titio::SharedTrace trace = shared_cg();
  const auto p = cluster(4);
  const std::vector<McScenario> scenarios = both_backends(p, platform::PerturbationSpec{});
  McOptions options;
  options.replicates = 3;
  const McReport report = mc_sweep(trace, scenarios, options);
  for (const McScenarioReport& sr : report.scenarios) {
    ASSERT_EQ(sr.replicates.size(), 3u);
    EXPECT_EQ(sr.simulated_time.stddev, 0.0);
    EXPECT_EQ(sr.simulated_time.min, sr.simulated_time.max);
  }
}

// Time-independent replay computes at the calibrated rate, so a host.speed
// perturbation must reach the prediction through the rates — a grid with
// ONLY host.speed active has to spread, and the scaling has to follow the
// rank -> host (r % host_count) placement both back-ends use.
TEST(McSweep, HostSpeedPerturbationReachesThePrediction) {
  const titio::SharedTrace trace = shared_cg();
  const auto p = cluster(4);
  platform::PerturbationSpec spec;
  spec.seed = 5;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.3};

  McOptions options;
  options.replicates = 5;
  const McReport report = mc_sweep(trace, both_backends(p, spec), options);
  for (const McScenarioReport& sr : report.scenarios) {
    EXPECT_EQ(sr.failures, 0u);
    EXPECT_GT(sr.simulated_time.stddev, 0.0) << sr.label;
  }

  // The scaling itself: a scalar rate broadcasts to per-rank before the
  // per-host multipliers land; ranks wrap onto hosts modulo host_count.
  McScenario sc;
  sc.model = platform::PlatformModel(p, spec);
  sc.config.rates = {2e9};
  McOptions one_seed;
  one_seed.seeds = {1};
  const Scenario scaled = mc_expand({sc}, 6, one_seed).cells.at(0);
  ASSERT_EQ(scaled.config.rates.size(), 6u);
  for (int r = 0; r < 6; ++r) {
    const platform::HostId h = static_cast<platform::HostId>(r % 4);
    const double mult = scaled.platform->host(h).speed / p->host(h).speed;
    EXPECT_EQ(scaled.config.rates[static_cast<std::size_t>(r)], 2e9 * mult) << "rank " << r;
    EXPECT_NE(mult, 1.0) << "host " << h;  // the spread is real, not vacuous
  }

  // No perturbation -> the config comes back bit-for-bit unchanged,
  // scalar shape included.
  sc.model = platform::PlatformModel(p, platform::PerturbationSpec{});
  const Scenario same = mc_expand({sc}, 6, one_seed).cells.at(0);
  ASSERT_EQ(same.config.rates.size(), 1u);
  EXPECT_EQ(same.config.rates[0], 2e9);
}

// The grid layout callers that run their own sweep rely on: per scenario
// the seed grid, then the baseline and one seed grid per active parameter,
// and mc_fold of those cells' outcomes is exactly mc_sweep's report.
TEST(McSweep, ExpandThenFoldIsTheSweep) {
  const titio::SharedTrace trace = shared_cg();
  platform::PerturbationSpec spec;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.2};
  spec.link_latency = {platform::Distribution::Kind::Normal, 0.1};
  const std::vector<McScenario> scenarios = both_backends(cluster(4), spec);
  McOptions options;
  options.seeds = {11, 12};
  options.tornado = true;
  const McGrid grid = mc_expand(scenarios, trace.nprocs(), options);
  ASSERT_EQ(grid.cells.size(), 2u * (2 + 1 + 2 * 2));
  ASSERT_EQ(grid.origins.size(), grid.cells.size());
  const char* labels[] = {"smpi[seed=11]",            "smpi[seed=12]",
                          "smpi[baseline]",           "smpi[host.speed,seed=11]",
                          "smpi[host.speed,seed=12]", "smpi[link.lat,seed=11]",
                          "smpi[link.lat,seed=12]",   "msg[seed=11]"};
  for (std::size_t i = 0; i < std::size(labels); ++i) EXPECT_EQ(grid.cells[i].label, labels[i]);
  EXPECT_EQ(grid.origins[7].scenario, 1u);

  const McReport folded = mc_fold(scenarios, grid, sweep(trace, grid.cells));
  EXPECT_EQ(mc_report_json(folded), mc_report_json(mc_sweep(trace, scenarios, options)));
}

TEST(McSweep, FailedReplicatesAreIsolatedAndCounted) {
  const titio::SharedTrace trace = shared_cg(4);
  platform::PerturbationSpec spec;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.1};

  std::vector<McScenario> scenarios;
  McScenario broken;  // negative rate: every replicate fails with Config
  broken.model = platform::PlatformModel(cluster(4), spec);
  broken.config.rates = {-1.0};
  broken.label = "broken";
  scenarios.push_back(broken);
  McScenario healthy;
  healthy.model = platform::PlatformModel(cluster(4), spec);
  healthy.label = "healthy";
  scenarios.push_back(healthy);

  McOptions options;
  options.replicates = 3;
  const McReport report = mc_sweep(trace, scenarios, options);
  ASSERT_EQ(report.scenarios.size(), 2u);
  EXPECT_EQ(report.scenarios[0].failures, 3u);
  EXPECT_EQ(report.scenarios[0].simulated_time.n, 0u);
  for (const McReplicate& r : report.scenarios[0].replicates) {
    EXPECT_FALSE(r.outcome.ok);
    EXPECT_FALSE(r.outcome.error.empty());
  }
  EXPECT_EQ(report.scenarios[1].failures, 0u);
  EXPECT_EQ(report.scenarios[1].simulated_time.n, 3u);
}

// The acceptance scenario for the sensitivity report: a 10x bandwidth
// spread against a 1% compute-rate jitter.  Bandwidth must rank first and
// its swing must dwarf the jitter's.
TEST(McSweep, TornadoRanksTheDominantParameterFirst) {
  const titio::SharedTrace trace = shared_cg(4, 8);
  const auto p = cluster(4);
  platform::PerturbationSpec spec;
  spec.seed = 11;
  spec.link_bandwidth = {platform::Distribution::Kind::Uniform, 0.9};  // x0.1 .. x1.9
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.01};     // 1% jitter

  std::vector<McScenario> scenarios;
  McScenario sc;
  sc.model = platform::PlatformModel(p, spec);
  sc.config.rates = {1e12};  // comm-bound: compute is noise next to transfers
  sc.config.sharing = sim::Sharing::MaxMin;
  sc.label = "cg";
  scenarios.push_back(std::move(sc));

  McOptions options;
  options.replicates = 8;
  options.tornado = true;
  const McReport report = mc_sweep(trace, scenarios, options);
  ASSERT_EQ(report.scenarios.size(), 1u);
  const TornadoReport& tornado = report.scenarios[0].tornado;
  // Baseline: the unperturbed platform, replayed once.
  EXPECT_GT(tornado.baseline, 0.0);
  ASSERT_EQ(tornado.entries.size(), 2u);  // the two ACTIVE parameters only
  EXPECT_EQ(tornado.entries[0].parameter, "link.bw");
  EXPECT_EQ(tornado.entries[1].parameter, "host.speed");
  EXPECT_GT(tornado.entries[0].swing, 10.0 * tornado.entries[1].swing);
  EXPECT_GT(tornado.entries[1].swing, 0.0);  // the jitter is small, not a no-op
  for (const TornadoEntry& bar : tornado.entries) {
    EXPECT_EQ(bar.metric.n, 8u);
    EXPECT_GE(bar.swing, 0.0);
  }

  // Tornado sub-grids ride the same one-sweep determinism contract.
  options.jobs = 8;
  const McReport again = mc_sweep(trace, scenarios, options);
  EXPECT_EQ(mc_report_json(report), mc_report_json(again));
}

// The report bytes of one tornado grid, pinned (tests/core/golden/
// mc_report.txt): seeds, labels, every replicate's %.17g makespan, the
// quantiles and the tornado bars.  Regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_core --gtest_filter='McSweep.ReportMatchesGolden'
TEST(McSweep, ReportMatchesGolden) {
  const titio::SharedTrace trace = shared_cg();
  platform::PerturbationSpec spec;
  spec.seed = 3;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.2};
  spec.link_bandwidth = {platform::Distribution::Kind::LogNormal, 0.3};
  McOptions options;
  options.replicates = 6;
  options.tornado = true;
  const McReport report = mc_sweep(trace, both_backends(cluster(4), spec), options);
  test::expect_matches_golden(std::string(TIR_CORE_GOLDEN_DIR) + "/mc_report.txt",
                              mc_report_json(report) + "\n");
}

}  // namespace
}  // namespace tir::core
