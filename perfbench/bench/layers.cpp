// Layer probes of the traced run.  Each probe times calls into one module's
// public functions from outside, under a span named after the layer; the
// program itself carries no instrumentation.
#include <filesystem>
#include <random>

#include "common.hpp"
#include "core/mc_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "sim/maxmin.hpp"
#include "titio/reader.hpp"

namespace perfbench {

using namespace tir;

namespace {

constexpr int kRepeats = 3;

/// Counts every event a replay emits, and the SMPI layer's protocol split.
class CountingSink final : public obs::Sink {
 public:
  std::uint64_t events = 0;
  std::uint64_t eager = 0;
  std::uint64_t rendezvous = 0;

  void on_actor_spawn(int, std::string_view, platform::HostId) override { ++events; }
  void on_actor_done(int, double) override { ++events; }
  void on_activity_start(obs::ActivityKind, std::uint64_t, double) override { ++events; }
  void on_activity_finish(obs::ActivityKind, std::uint64_t, double) override { ++events; }
  void on_time_advance(double, double) override { ++events; }
  void on_comm_progress(std::span<const platform::LinkId>, double, double) override { ++events; }
  void on_sim_end(double) override { ++events; }
  void on_message(int, int, double, bool is_eager, bool) override {
    ++events;
    ++(is_eager ? eager : rendezvous);
  }
  void on_mailbox_match(std::string_view, double) override { ++events; }
  void on_phase_begin(const obs::PhaseEvent&, double) override { ++events; }
  void on_phase_end(int, double) override { ++events; }
  void on_warning(std::string_view) override { ++events; }
  void on_diagnosis(int, std::string_view, std::string_view, double) override { ++events; }
};

/// Time `fn` `repeats` times under a span named `name`; median seconds.
template <class Fn>
Samples repeat(Tracer& tracer, const char* name, int repeats, Fn fn) {
  Samples s;
  for (int i = 0; i < repeats; ++i) {
    const Tracer::Scope span(tracer, name);
    const auto t0 = Clock::now();
    fn();
    s.add(seconds_since(t0));
  }
  return s;
}

/// A 2-rank ping-pong of `rounds` round trips of `bytes` each way.
tit::Trace pingpong_trace(double bytes, int rounds) {
  tit::Trace trace(2);
  for (int rank = 0; rank < 2; ++rank) {
    tit::Action init;
    init.type = tit::ActionType::Init;
    init.proc = rank;
    trace.push(init);
  }
  for (int i = 0; i < rounds; ++i) {
    for (int rank = 0; rank < 2; ++rank) {
      tit::Action first;
      first.type = rank == 0 ? tit::ActionType::Send : tit::ActionType::Recv;
      first.proc = rank;
      first.partner = 1 - rank;
      first.volume = bytes;
      tit::Action second = first;
      second.type = rank == 0 ? tit::ActionType::Recv : tit::ActionType::Send;
      trace.push(first);
      trace.push(second);
    }
  }
  for (int rank = 0; rank < 2; ++rank) {
    tit::Action fin;
    fin.type = tit::ActionType::Finalize;
    fin.proc = rank;
    trace.push(fin);
  }
  return trace;
}

void drain(titio::ActionSource& source) {
  tit::Action a;
  for (int rank = 0; rank < source.nprocs(); ++rank) {
    while (source.next(rank, a)) {
    }
  }
}

}  // namespace

SweepFigures probe_sweep(const titio::SharedTrace& trace, const platform::Platform& platform,
                         const core::ReplayConfig& config, std::uint64_t seed, Tracer& tracer) {
  auto base = std::make_shared<const platform::Platform>(platform);
  core::McScenario scenario;
  scenario.model = platform::PlatformModel(
      base, platform::PerturbationSpec::parse("seed=" + std::to_string(seed % 1000000007) +
                                              ";link.bw=lognormal:0.1"));
  scenario.config = config;
  scenario.label = "probe";
  core::McOptions options;
  options.jobs = bench_jobs();
  options.replicates = 2 * options.jobs;
  const Tracer::Scope span(tracer, "core.mc_sweep");
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const core::McReport report = core::mc_sweep(trace, {scenario}, options);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;
  double busy = 0.0;
  for (const core::McReplicate& r : report.scenarios.front().replicates) {
    busy += r.outcome.result.wall_clock_seconds;
  }
  return {{busy, wall * options.jobs}, {cpu, wall}};
}

SweepFigures probe_layers(const LayerInputs& in, Tracer& tracer, Report& report,
                          const Options& options, const SweepFigures* sweep) {
  const platform::Platform& platform = in.cluster->platform;
  const titio::SharedTrace& trace = *in.trace;
  const double actions = static_cast<double>(trace.total_actions());

  // --- titio: decode, cursor, load, content hash ------------------------------
  const Samples decode = repeat(tracer, "titio.decode", kRepeats, [&] {
    titio::Reader reader(in.titb_path);
    drain(reader);
  });
  report.timing("titio.decode_s", decode.median(), "s", decode.count());
  report.metric("titio.decode_actions_per_s", actions / decode.median(), "1/s");
  {
    titio::Reader reader(in.titb_path);
    report.metric("titio.frames", static_cast<double>(reader.frame_count()), "count");
  }
  report.metric("titio.file_bytes", static_cast<double>(std::filesystem::file_size(in.titb_path)),
                "bytes");
  const Samples cursor = repeat(tracer, "titio.cursor_drain", kRepeats, [&] {
    titio::SharedTrace::Cursor c = trace.cursor();
    drain(c);
  });
  report.timing("titio.cursor_drain_s", cursor.median(), "s", cursor.count());
  const Samples load = repeat(tracer, "titio.load", kRepeats,
                              [&] { (void)titio::SharedTrace::load(in.titb_path); });
  report.timing("titio.load_ms", 1e3 * load.median(), "ms", load.count());
  const Samples hash = repeat(tracer, "titio.content_hash", 5, [&] {
    titio::Reader reader(in.titb_path);
    (void)reader.content_hash();
  });
  report.timing("titio.content_hash_ms", 1e3 * hash.median(), "ms", hash.count());

  // --- core + sim: one replay, its steps, the streamed variant's buffering ---
  core::ReplayResult result;
  const Samples replay = repeat(tracer, "core.replay.memory", kRepeats, [&] {
    result = core::replay(core::Backend::Smpi, trace, platform, in.config);
  });
  report.timing("core.replay_s", replay.median(), "s", replay.count());
  report.metric("sim.steps", static_cast<double>(result.engine_steps), "count");
  report.metric("sim.ns_per_step", 1e9 * replay.median() / static_cast<double>(result.engine_steps),
                "ns");
  {
    const Tracer::Scope span(tracer, "core.replay.stream");
    titio::Reader reader(in.titb_path);
    (void)core::replay(core::Backend::Smpi, reader, platform, in.config);
    report.metric("titio.peak_buffered_bytes", static_cast<double>(reader.peak_buffered_bytes()),
                  "bytes");
  }

  // --- sim: the max-min solver's share of a contended replay -----------------
  core::ReplayConfig contended = in.config;
  contended.sharing = sim::Sharing::MaxMin;
  core::ReplayConfig uncontended = in.config;
  uncontended.sharing = sim::Sharing::Uncontended;
  const Samples t_maxmin = repeat(tracer, "core.replay.maxmin", kRepeats, [&] {
    (void)core::replay(core::Backend::Smpi, trace, platform, contended);
  });
  const Samples t_plain = repeat(tracer, "core.replay.uncontended", kRepeats, [&] {
    (void)core::replay(core::Backend::Smpi, trace, platform, uncontended);
  });
  report.ratio("sim.maxmin_share",
               {t_maxmin.median() - t_plain.median(), t_maxmin.median()});

  // --- sim: solver churn on the graphene links --------------------------------
  {
    const platform::Platform graphene = platform::graphene();
    std::mt19937_64 rng(derive_seed(options.seed, 70));
    std::uniform_int_distribution<int> pick(0, static_cast<int>(graphene.host_count()) - 1);
    std::vector<std::vector<platform::LinkId>> routes;
    while (routes.size() < 256) {
      const int a = pick(rng);
      const int b = pick(rng);
      if (a != b) routes.push_back(graphene.route(a, b).links);
    }
    sim::MaxMinSolver solver;
    solver.reset_links(graphene.links());
    std::vector<int> active;
    constexpr int kOps = 10000;
    constexpr std::size_t kTargetFlows = 96;
    const Tracer::Scope span(tracer, "sim.maxmin.churn");
    const auto t0 = Clock::now();
    for (int op = 0; op < kOps; ++op) {
      if (active.size() < kTargetFlows || (rng() & 1) == 0) {
        active.push_back(solver.add_flow(routes[rng() % routes.size()], 1.25e8));
      } else {
        const std::size_t victim = rng() % active.size();
        solver.remove_flow(active[victim]);
        active[victim] = active.back();
        active.pop_back();
      }
      (void)solver.solve_partial();
    }
    const double wall = seconds_since(t0);
    const sim::MaxMinSolver::Counters& c = solver.counters();
    report.metric("sim.maxmin.solves_per_s", static_cast<double>(c.partial_solves) / wall, "1/s");
    report.ratio("sim.maxmin.flows_visited_per_solve",
                 {static_cast<double>(c.flows_visited), static_cast<double>(c.partial_solves)},
                 "count");
  }

  // --- smpi + msg: the protocol layer on a two-rank ping-pong -----------------
  {
    platform::Platform pair;
    platform::ClusterSpec spec;
    spec.nodes = 2;
    platform::build_flat_cluster(pair, spec);
    constexpr int kRounds = 20000;
    const titio::SharedTrace eager(pingpong_trace(1024.0, kRounds));
    const titio::SharedTrace rdv(pingpong_trace(1 << 20, kRounds));
    core::ReplayConfig cfg;
    const Samples t_eager = repeat(tracer, "smpi.pingpong.eager", kRepeats, [&] {
      (void)core::replay(core::Backend::Smpi, eager, pair, cfg);
    });
    const Samples t_rdv = repeat(tracer, "smpi.pingpong.rdv", kRepeats, [&] {
      (void)core::replay(core::Backend::Smpi, rdv, pair, cfg);
    });
    const Samples t_msg = repeat(tracer, "msg.pingpong", kRepeats, [&] {
      (void)core::replay(core::Backend::Msg, eager, pair, cfg);
      (void)core::replay(core::Backend::Msg, rdv, pair, cfg);
    });
    report.timing("smpi.pingpong_eager_per_s", kRounds / t_eager.median(), "1/s", t_eager.count());
    report.timing("smpi.pingpong_rdv_per_s", kRounds / t_rdv.median(), "1/s", t_rdv.count());
    report.timing("msg.pingpong_per_s", 2 * kRounds / t_msg.median(), "1/s", t_msg.count());
  }

  // --- obs: event counts, timeline overhead, aggregation ----------------------
  {
    CountingSink counter;
    core::ReplayConfig cfg = in.config;
    cfg.sink = &counter;
    {
      const Tracer::Scope span(tracer, "obs.counting_replay");
      (void)core::replay(core::Backend::Smpi, trace, platform, cfg);
    }
    report.metric("obs.events", static_cast<double>(counter.events), "count");
    report.metric("smpi.eager_sends", static_cast<double>(counter.eager), "count");
    report.metric("smpi.rendezvous_sends", static_cast<double>(counter.rendezvous), "count");

    obs::TimelineSink timeline;
    const Samples t_timeline = repeat(tracer, "obs.timeline_replay", kRepeats, [&] {
      timeline = obs::TimelineSink();
      core::ReplayConfig with_sink = in.config;
      with_sink.sink = &timeline;
      (void)core::replay(core::Backend::Smpi, trace, platform, with_sink);
    });
    report.ratio("obs.timeline_overhead_ratio",
                 {t_timeline.median() - replay.median(), replay.median()});
    const Samples aggregate = repeat(tracer, "obs.aggregate", kRepeats, [&] {
      (void)obs::to_json(obs::aggregate(timeline, 65536.0, &platform));
    });
    report.timing("obs.aggregate_ms", 1e3 * aggregate.median(), "ms", aggregate.count());
  }

  // --- core: a cold calibration ----------------------------------------------
  {
    int k = 0;
    const Samples calibrate = repeat(tracer, "core.calibrate", kRepeats, [&] {
      core::CalibrationRequest request = in.calibration;
      request.seed = derive_seed(options.seed, 80, static_cast<std::uint64_t>(k++));
      (void)core::calibrate_rate(platform, request);
    });
    report.timing("core.calibrate_ms", 1e3 * calibrate.median(), "ms", calibrate.count());
  }

  // --- core: the sweep pool ---------------------------------------------------
  const SweepFigures figures =
      sweep != nullptr
          ? *sweep
          : probe_sweep(trace, platform, in.config, derive_seed(options.seed, 60), tracer);
  report.ratio("core.sweep_busy_ratio", figures.busy);
  report.ratio("core.sweep_cpu_per_wall", figures.cpu_per_wall);
  return figures;
}

void finish_traced(const Tracer& tracer, Report& report, const Options& options,
                   const SweepFigures& sweep) {
  report.detail("host", host_json(sweep.cpu_per_wall.value()));
  const auto path =
      options.spans / (options.workload + "-" + std::to_string(options.seed) + ".json");
  tracer.write(path);
  report.detail("spans_file", json_string(path.string()));
}

}  // namespace perfbench
