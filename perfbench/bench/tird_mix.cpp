// Workload tird-mix: an in-process svc::Server on a unix socket with two
// workers, driven by two svc::Client connections in a closed loop (each
// sends its next predict job only after the previous `done` line).  Jobs
// are LU A-8 with cache-aware calibration, in a seeded mix per ten jobs:
//   6 warm          trace, platform and calibration all cached;
//   2 warm+metrics  the same, with TimelineSinks and the metrics JSON;
//   2 cold          a trace file and a calibration seed never seen before.
// The mix puts p50 inside the warm band and p90 inside the cold band.  This
// is the only workload that crosses the svc wire, JSON, caches and queue,
// SharedTrace::load, content_hash, calibration and the obs sinks.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "platform/parse.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace perfbench {

using namespace tir;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kIterations = 2;
/// Cold inputs generated per run.  The plan uses each once per epoch; the
/// caches are flushed between epochs, outside the timed section.
constexpr std::size_t kColdInputs = 64;
/// The short session other workloads' traced runs use for the svc metrics.
constexpr std::size_t kProbeColdInputs = 4;
constexpr double kProbeSeconds = 0.5;
/// Completions per throughput window: ten rounds of the mix.
constexpr std::size_t kWindow = 100;
constexpr int kMaxAttempts = 50;

enum class Kind { Warm, Metrics, Cold };

const char* kind_name(Kind k) {
  return k == Kind::Warm ? "warm" : k == Kind::Metrics ? "warm+metrics" : "cold";
}

struct PlannedJob {
  Kind kind = Kind::Warm;
  std::size_t cold = 0;  ///< index into TirdSetup::cold for Kind::Cold
};

struct TraceInput {
  std::string path;
  Acquisition acquisition;
  std::uint64_t calibration_seed = 0;
};

struct TirdSetup {
  exp::ClusterSetup cluster = exp::bordereau_setup();
  std::string platform_path;
  TraceInput warm;
  std::vector<TraceInput> cold;
  std::vector<PlannedJob> plan;
  std::atomic<std::size_t> next{0};  ///< next plan entry, shared by every timed section
  std::unique_ptr<svc::Server> server;
};

struct JobRecord {
  PlannedJob job;
  double t_s = 0.0;    ///< completion, on the section's clock
  double cpu_s = 0.0;  ///< process CPU spent in the section by then
  bool done = false;
  core::ScenarioOutcome outcome;
  double latency_ms = 0.0;
  bool trace_hit = false;
  bool calibration_hit = false;
  double queue_ms = 0.0, decode_ms = 0.0, calibrate_ms = 0.0, replay_ms = 0.0;
};

struct Section {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t rejected = 0;
  std::uint64_t epochs = 1;
  std::uint64_t client_errors = 0;  ///< client threads that died on an exception
};

TraceInput make_input(const TirdSetup& setup, const std::filesystem::path& path,
                      std::uint64_t acquisition_seed, std::uint64_t calibration_seed) {
  TraceInput in;
  in.path = path.string();
  in.acquisition = acquire_lu(setup.cluster, 'A', 8, kIterations, acquisition_seed);
  in.calibration_seed = calibration_seed;
  titio::write_binary_trace(in.acquisition.trace, in.path);
  return in;
}

/// Six warm, two warm+metrics, two cold per ten jobs, shuffled per round.
std::vector<PlannedJob> make_plan(std::uint64_t seed, std::size_t cold_inputs) {
  std::vector<PlannedJob> plan;
  std::size_t cold = 0;
  for (std::uint64_t round = 0; cold + 2 <= cold_inputs; ++round) {
    std::vector<PlannedJob> ten(6, {Kind::Warm, 0});
    ten.insert(ten.end(), 2, {Kind::Metrics, 0});
    ten.push_back({Kind::Cold, cold++});
    ten.push_back({Kind::Cold, cold++});
    for (std::size_t i = ten.size() - 1; i > 0; --i) {
      std::swap(ten[i], ten[derive_seed(seed, 5 + round, i) % (i + 1)]);
    }
    plan.insert(plan.end(), ten.begin(), ten.end());
  }
  return plan;
}

svc::JobRequest make_request(const TirdSetup& setup, const PlannedJob& job) {
  const TraceInput& in = job.kind == Kind::Cold ? setup.cold[job.cold] : setup.warm;
  svc::JobRequest request;
  request.op = "predict";
  request.trace = in.path;
  request.platform = setup.platform_path;
  request.calibrate = true;
  request.calibration = calibration_request(setup.cluster, 'A', 8, in.calibration_seed);
  request.metrics = job.kind == Kind::Metrics;
  svc::ScenarioSpec spec;
  spec.label = "calibrated";
  request.scenarios.push_back(spec);
  return request;
}

/// Flush every cache, then re-prime the warm trace, platform and
/// calibration.  Runs in set-up and between epochs, outside the timed
/// section, so each epoch finds the cold pool cold again.
void prime(const TirdSetup& setup, bool flush) {
  svc::Client client(setup.server->endpoint());
  if (flush && !client.flush()) throw Error("cache flush failed");
  for (const Kind kind : {Kind::Warm, Kind::Metrics}) {
    const svc::JobResult r = client.submit(make_request(setup, {kind, 0}));
    if (!r.done) throw Error("priming job failed: " + r.error);
  }
}

std::unique_ptr<TirdSetup> make_setup(const Options& options, const std::filesystem::path& dir,
                                      std::size_t cold_inputs) {
  auto setup = std::make_unique<TirdSetup>();
  std::filesystem::create_directories(dir);
  setup->platform_path = (dir / "bordereau.platform").string();
  {
    std::ofstream out(setup->platform_path);
    out << platform::write_platform_string(setup->cluster.platform);
    if (!out) throw Error("cannot write " + setup->platform_path);
  }
  // Calibration seeds cross the wire as JSON numbers: keep them below 2^53.
  setup->warm = make_input(*setup, dir / "lu-A8-warm.titb", derive_seed(options.seed, 1),
                           derive_seed(options.seed, 2) >> 11);
  for (std::size_t i = 0; i < cold_inputs; ++i) {
    setup->cold.push_back(make_input(*setup, dir / ("lu-A8-cold" + std::to_string(i) + ".titb"),
                                     derive_seed(options.seed, 3, i),
                                     derive_seed(options.seed, 4, i) >> 11));
  }
  setup->plan = make_plan(options.seed, cold_inputs);

  svc::ServerOptions server;
  server.endpoint = "unix:" + (dir / "tird.sock").string();
  server.workers = kWorkers;
  setup->server = std::make_unique<svc::Server>(server);
  setup->server->start();
  prime(*setup, false);
  return setup;
}

/// The section's clock during one epoch: time and process CPU since the
/// section started, the pauses between epochs left out.
struct EpochClock {
  explicit EpochClock(const Section& section)
      : t_base(section.wall_s), cpu_base(section.cpu_s) {}

  double epoch_s() const { return seconds_since(t0); }
  double t_s() const { return t_base + epoch_s(); }
  double cpu_s() const { return cpu_base + process_cpu_seconds() - cpu0; }

  double t_base;
  double cpu_base;
  double cpu0 = process_cpu_seconds();
  Clock::time_point t0 = Clock::now();
};

/// One client's closed loop: submit the next planned job, wait for its
/// terminal response, record it, repeat.
void client_loop(TirdSetup& setup, double budget, const EpochClock& clock, Tracer& tracer,
                 std::mutex& mutex, Section& section) {
  svc::Client client(setup.server->endpoint());
  while (clock.epoch_s() < budget) {
    const std::size_t index = setup.next.fetch_add(1);
    if (index >= setup.plan.size()) break;
    JobRecord record;
    record.job = setup.plan[index];
    const svc::JobRequest request = make_request(setup, record.job);
    const Tracer::Scope span(tracer, "svc.submit");
    const auto j0 = Clock::now();
    svc::JobResult result;
    std::uint64_t rejected = 0;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      result = client.submit(request);
      if (!result.rejected) break;
      ++rejected;
      std::this_thread::sleep_for(std::chrono::milliseconds(std::max(1, result.retry_after_ms)));
    }
    record.latency_ms = 1e3 * seconds_since(j0);
    record.t_s = clock.t_s();
    record.cpu_s = clock.cpu_s();
    record.done = result.done && result.scenarios.size() == 1;
    if (record.done) {
      record.outcome = svc::parse_scenario(result.scenarios.front());
      record.trace_hit = result.trace_cache_hit();
      record.calibration_hit = result.started.str_or("calibration_cache", "") == "hit";
      const svc::Json& e = result.epilogue;
      record.queue_ms = 1e3 * e.num_or("queue_wait_seconds", 0.0);
      record.decode_ms = 1e3 * e.num_or("decode_seconds", 0.0);
      record.calibrate_ms = 1e3 * e.num_or("calibrate_seconds", 0.0);
      record.replay_ms = 1e3 * e.num_or("replay_seconds", 0.0);
    } else {
      std::fprintf(stderr, "perfbench: %s job failed: [%s] %s\n", kind_name(record.job.kind),
                   result.error_code.c_str(), result.error.c_str());
    }
    const std::lock_guard<std::mutex> lock(mutex);
    section.rejected += rejected;
    section.jobs.push_back(std::move(record));
  }
}

/// Both clients run the plan in a closed loop until it is used up or
/// `budget` seconds pass.
void run_epoch(TirdSetup& setup, double budget, Tracer& tracer, Section& section) {
  std::mutex mutex;
  const EpochClock clock(section);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        client_loop(setup, budget, clock, tracer, mutex, section);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: tird client: %s\n", e.what());
        const std::lock_guard<std::mutex> lock(mutex);
        section.client_errors += 1;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  section.wall_s = clock.t_s();
  section.cpu_s = clock.cpu_s();
}

/// The closed loop for `seconds` of timed work, in epochs over the plan.
Section run_section(TirdSetup& setup, double seconds, Tracer& tracer) {
  Section section;
  while (section.wall_s < seconds) {
    if (setup.next >= setup.plan.size()) {
      prime(setup, true);
      setup.next = 0;
      ++section.epochs;
    }
    run_epoch(setup, seconds - section.wall_s, tracer, section);
  }
  return section;
}

/// The in-process reference for one input: calibrate_rate and core::replay
/// on the platform file the server loads.
class References {
 public:
  explicit References(const TirdSetup& setup)
      : setup_(setup), platform_(platform::load_platform(setup.platform_path)) {}

  const core::ReplayResult& of(const PlannedJob& job) {
    const std::size_t key = job.kind == Kind::Cold ? job.cold + 1 : 0;
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const TraceInput& in = job.kind == Kind::Cold ? setup_.cold[job.cold] : setup_.warm;
    core::ReplayConfig config;
    config.rates = {core::calibrate_rate(
        platform_, calibration_request(setup_.cluster, 'A', 8, in.calibration_seed))};
    return cache_[key] =
               core::replay(core::Backend::Smpi, in.acquisition.trace, platform_, config);
  }

 private:
  const TirdSetup& setup_;
  platform::Platform platform_;
  std::map<std::size_t, core::ReplayResult> cache_;
};

/// Check every job against its reference and fold the section into Figures.
Figures check_section(const TirdSetup& setup, const Section& section, References& refs,
                      Report& report) {
  Figures f(kWindow);
  report.check("tird clients ran without errors", section.client_errors == 0);
  f.wall_s = section.wall_s;
  f.cpu_s = section.cpu_s;
  std::vector<const JobRecord*> by_time;
  for (const JobRecord& job : section.jobs) by_time.push_back(&job);
  std::sort(by_time.begin(), by_time.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->t_s < b->t_s; });
  for (const JobRecord* record : by_time) {
    const JobRecord& job = *record;
    const bool ok =
        job.done && job.outcome.ok && same_prediction(job.outcome.result, refs.of(job.job));
    report.attempts.record(ok);
    report.check("service prediction equals in-process replay", ok);
    f.latency_ms.add(job.latency_ms);
    if (!ok) continue;
    const TraceInput& in = job.job.kind == Kind::Cold ? setup.cold[job.job.cold] : setup.warm;
    f.complete(job.t_s, job.cpu_s, job.outcome.result.actions_replayed);
    f.error_pct.add(error_pct(job.outcome.result.simulated_time, in.acquisition.reference_seconds));
  }
  return f;
}

/// The svc per-layer metrics of one section: p50 phase timings per class
/// from the done lines, client-side wire time, and cache hit ratios from
/// each job's started line.
void report_svc(const Section& s, Report& report) {
  Samples queue, decode_warm, decode_cold, calibrate_cold, replay, wire;
  Ratio trace_hits, calibration_hits;
  for (const JobRecord& j : s.jobs) {
    if (!j.done) continue;
    trace_hits.numerator += j.trace_hit ? 1 : 0;
    trace_hits.denominator += 1;
    calibration_hits.numerator += j.calibration_hit ? 1 : 0;
    calibration_hits.denominator += 1;
    queue.add(j.queue_ms);
    replay.add(j.replay_ms);
    wire.add(j.latency_ms - (j.queue_ms + j.decode_ms + j.calibrate_ms + j.replay_ms));
    if (j.job.kind == Kind::Cold) {
      decode_cold.add(j.decode_ms);
      calibrate_cold.add(j.calibrate_ms);
    } else {
      decode_warm.add(j.decode_ms);
    }
  }
  if (decode_warm.count() == 0 || decode_cold.count() == 0) {
    report.check("svc session ran warm and cold jobs", false);
    return;
  }
  report.timing("svc.queue_wait_ms", queue.median(), "ms", queue.count());
  report.timing("svc.decode_ms.warm", decode_warm.median(), "ms", decode_warm.count());
  report.timing("svc.decode_ms.cold", decode_cold.median(), "ms", decode_cold.count());
  report.timing("svc.calibrate_ms.cold", calibrate_cold.median(), "ms", calibrate_cold.count());
  report.timing("svc.replay_ms", replay.median(), "ms", replay.count());
  report.timing("svc.wire_ms", wire.median(), "ms", wire.count());
  report.ratio("svc.trace_cache_hit_ratio", trace_hits);
  report.ratio("svc.calibration_cache_hit_ratio", calibration_hits);
  report.metric("svc.rejected", static_cast<double>(s.rejected), "count");
}

void record_inputs(const TirdSetup& setup, Report& report) {
  const auto hash_of = [](const TraceInput& in) { return titio::Reader(in.path).content_hash(); };
  report.input("lu-A8-warm", hash_of(setup.warm), setup.warm.acquisition.trace.total_actions());
  // The cold pool is recorded as one input: its hashes folded in order.
  std::set<std::uint64_t> hashes{hash_of(setup.warm)};
  std::uint64_t pool_hash = 0;
  std::uint64_t pool_actions = 0;
  for (const TraceInput& in : setup.cold) {
    const std::uint64_t h = hash_of(in);
    hashes.insert(h);
    pool_hash = derive_seed(pool_hash, h);
    pool_actions += in.acquisition.trace.total_actions();
  }
  report.input("lu-A8-cold-pool-of-" + std::to_string(setup.cold.size()), pool_hash, pool_actions);
  report.check("cold traces are distinct", hashes.size() == setup.cold.size() + 1);
}

void shutdown(TirdSetup& setup) {
  setup.server->shutdown();
  setup.server->wait();
}

}  // namespace

int run_tird_mix(const Options& options) {
  Report report;
  Tracer tracer("tird-mix/" + std::to_string(options.seed));
  Samples setup_s;
  const std::unique_ptr<TirdSetup> setup = repeated_setup(
      [&] { return make_setup(options, options.work, kColdInputs); }, setup_s);
  record_inputs(*setup, report);
  References refs(*setup);
  const titio::SharedTrace warm(setup->warm.acquisition.trace);
  const core::CalibrationRequest calibration =
      calibration_request(setup->cluster, 'A', 8, setup->warm.calibration_seed);
  core::ReplayConfig config;
  config.rates = {core::calibrate_rate(setup->cluster.platform, calibration)};

  if (!options.trace) {
    const Section section = run_section(*setup, options.seconds, tracer);
    shutdown(*setup);
    report_end_to_end(report, check_section(*setup, section, refs, report), setup_s);
    report.detail("svc.rejected", std::to_string(section.rejected));
    report.detail("epochs", std::to_string(section.epochs));
    const SweepFigures sweep = probe_sweep(warm, setup->cluster.platform, config,
                                           derive_seed(options.seed, 60), tracer);
    report.detail("host", host_json(sweep.cpu_per_wall.value()));
  } else {
    const Section untraced = run_section(*setup, options.seconds / 2, tracer);
    tracer.enable(true);
    const Section traced = run_section(*setup, options.seconds / 2, tracer);
    shutdown(*setup);
    const Figures untraced_figures = check_section(*setup, untraced, refs, report);
    const Figures traced_figures = check_section(*setup, traced, refs, report);
    report_trace_overhead(report, untraced_figures, traced_figures);
    report_svc(traced, report);
    LayerInputs layers{setup->warm.path, &warm, &setup->cluster, config, calibration};
    const SweepFigures sweep = probe_layers(layers, tracer, report, options, nullptr);
    finish_traced(tracer, report, options, sweep);
  }
  report.print(options);
  return report.correct() ? 0 : 1;
}

void probe_svc(const Options& options, Tracer& tracer, Report& report) {
  const std::unique_ptr<TirdSetup> setup =
      make_setup(options, options.work / "svc-probe", kProbeColdInputs);
  const Section section = run_section(*setup, kProbeSeconds, tracer);
  shutdown(*setup);
  References refs(*setup);
  (void)check_section(*setup, section, refs, report);
  report_svc(section, report);
}

}  // namespace perfbench
