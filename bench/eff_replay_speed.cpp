// Replay efficiency: wall-clock time and event rate of both back-ends.
//
// The paper's title promises *efficiency* as well as accuracy: the replay
// must stay much faster than the execution it predicts.  This bench replays
// LU traces of growing size and reports host-side wall-clock, simulated
// time, actions/s, and the speedup over the (simulated) real execution.
// One full-length (250-iteration) B-8 replay anchors the comparison.
//
// A second table compares the two trace I/O paths end to end: text manifest
// parsed into memory then replayed, versus the TITB binary format streamed
// straight into the engine with a bounded buffer.  Reported per path:
// parse+replay wall-clock, actions/s, on-disk size, and peak RSS (Linux).
//
// Everything printed is also written to BENCH_replay_speed.json so the CI
// can track throughput across commits.  The final section guards the
// observability hooks (src/obs): replay with a NullSink attached must stay
// within 5% of the throughput of replay with no sink (SinkRecord::budget),
// i.e. the guarded `if (sink)` checks on the hot paths must be close to
// free.  The bench exits nonzero when that budget is exceeded.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "ckpt/cursor.hpp"
#include "core/mc_sweep.hpp"
#include "core/replay.hpp"
#include "core/session.hpp"
#include "core/sweep.hpp"
#include "platform/model.hpp"
#include "exp/experiments.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

using namespace tir;

namespace {

struct CaseRecord {
  std::string label;
  int procs = 0;
  int iters = 0;
  double actions = 0;
  double smpi_wall = 0, smpi_rate = 0;
  double msg_wall = 0, msg_rate = 0;
};

struct StreamRecord {
  std::string label;
  int procs = 0;
  double actions = 0;
  double text_mib = 0, text_wall = 0, text_rate = 0;
  double bin_mib = 0, bin_wall = 0, bin_rate = 0;
  long text_rss_kib = -1, bin_rss_kib = -1;
};

struct SinkRecord {
  double actions = 0;
  int repetitions = 0;
  double no_sink_wall = 0, no_sink_rate = 0;
  double null_sink_wall = 0, null_sink_rate = 0;
  double overhead = 0;  ///< throughput lost to the hooks, as a fraction
  double budget = 0.05;
  bool pass = false;
};

struct KernelRecord {
  int flows = 0;  ///< concurrent flows at the simulation's plateau
  double actions = 0;
  double full_wall = 0, full_rate = 0;
  double inc_wall = 0, inc_rate = 0;
  double speedup = 0;        ///< incremental throughput / full-resolve throughput
  double required = 0;       ///< gate: minimum speedup (0 = ungated data point)
  bool identical = false;    ///< both modes predicted the same time, exactly
  bool pass = false;
};

struct SweepRecord {
  int scenarios = 0;
  int jobs = 0;               ///< worker count of the parallel leg
  unsigned hardware = 0;      ///< std::thread::hardware_concurrency() here
  double actions = 0;         ///< actions per scenario
  double jobs1_wall = 0, jobs1_rate = 0;  ///< rate = scenarios*actions/wall
  double jobsN_wall = 0, jobsN_rate = 0;
  double speedup = 0;     ///< jobs1 wall / jobsN wall
  double required = 0;    ///< gate armed from the hardware (0 = informational)
  bool identical = false; ///< per-scenario results bitwise equal across legs
  bool pass = false;
};

struct McRecord {
  int scenarios = 0;          ///< label groups (the scenario list)
  int replicates = 0;         ///< seeds per scenario
  int jobs = 0;               ///< worker count of the parallel leg
  unsigned hardware = 0;
  double actions = 0;         ///< actions per replicate
  double jobs1_wall = 0, jobs1_rate = 0;
  double jobsN_wall = 0, jobsN_rate = 0;
  double speedup = 0;
  double required = 0;        ///< gate armed from the hardware (0 = informational)
  bool identical = false;     ///< full JSON report (quantiles included) byte-equal
  bool pass = false;
};

struct SeekRecord {
  double actions = 0;
  std::size_t checkpoints = 0;   ///< snapshots the recording replay captured
  double record_wall = 0;        ///< one-time recording cost (a cold replay)
  double window_from = 0, window_to = 0, horizon = 0;
  double cold_wall = 0, cold_rate = 0;  ///< full replay + slice to the window
  double seek_wall = 0, seek_rate = 0;  ///< warm cursor query of the window
  double speedup = 0;
  double required = 5.0;   ///< acceptance gate for the late window
  bool identical = false;  ///< warm window bitwise equal to the cold slice
  bool pass = false;
};

std::vector<CaseRecord> g_cases;
std::vector<StreamRecord> g_streams;
std::vector<KernelRecord> g_kernels;

void run_case(const exp::ClusterSetup& cluster, char cls, int np, int iters,
              const char* note) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = np;
  lu.iterations_override = iters;
  const apps::MachineModel machine(cluster.truth);

  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);

  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};
  const core::ReplayResult smpi =
      core::replay(core::Backend::Smpi, traced.trace, cluster.platform, cfg);
  const core::ReplayResult msg =
      core::replay(core::Backend::Msg, traced.trace, cluster.platform, cfg);

  const double actions = static_cast<double>(traced.trace.total_actions());
  std::printf("%-6s %5d %6d | %9.0f | %8.3fs %10.0f | %8.3fs %10.0f | %8.1fx %s\n",
              lu.label().c_str(), np, iters, actions, smpi.wall_clock_seconds,
              actions / std::max(smpi.wall_clock_seconds, 1e-9), msg.wall_clock_seconds,
              actions / std::max(msg.wall_clock_seconds, 1e-9),
              traced.wall_time / std::max(smpi.wall_clock_seconds, 1e-9), note);
  std::fflush(stdout);

  CaseRecord rec;
  rec.label = lu.label();
  rec.procs = np;
  rec.iters = iters;
  rec.actions = actions;
  rec.smpi_wall = smpi.wall_clock_seconds;
  rec.smpi_rate = actions / std::max(smpi.wall_clock_seconds, 1e-9);
  rec.msg_wall = msg.wall_clock_seconds;
  rec.msg_rate = actions / std::max(msg.wall_clock_seconds, 1e-9);
  g_cases.push_back(rec);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Phase {
  double seconds = 0;
  double sim_time = 0;
  long peak_rss_kib = -1;
};

// Run one I/O phase and measure its true peak RSS.  On Linux each phase
// runs in a forked child (so phases cannot inflate each other's high-water
// mark through allocator retention) and the peak comes from wait4's
// ru_maxrss; elsewhere it runs inline and the peak is reported as -1.
template <class Fn>
Phase run_phase(Fn fn) {
  Phase result;
#if defined(__linux__)
  int fds[2];
  if (pipe(fds) == 0) {
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const double sim = fn();
      const bool ok = write(fds[1], &sim, sizeof sim) == sizeof sim;
      _exit(ok ? 0 : 1);
    }
    if (pid > 0) {
      close(fds[1]);
      double sim = 0;
      const bool got = read(fds[0], &sim, sizeof sim) == sizeof sim;
      close(fds[0]);
      struct rusage usage {};
      int status = 0;
      wait4(pid, &status, 0, &usage);
      result.seconds = seconds_since(start);
      result.sim_time = got ? sim : -1;
      result.peak_rss_kib = usage.ru_maxrss;
      return result;
    }
    close(fds[0]);
    close(fds[1]);
  }
#endif
  const auto start = std::chrono::steady_clock::now();
  result.sim_time = fn();
  result.seconds = seconds_since(start);
  return result;
}

std::uintmax_t tree_bytes(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void run_streaming_case(const exp::ClusterSetup& cluster, char cls, int np, int iters) {
  namespace fs = std::filesystem;
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = np;
  lu.iterations_override = iters;

  const fs::path dir = fs::temp_directory_path() / "tir_eff_stream";
  fs::remove_all(dir);
  const fs::path binary = dir / "bench.titb";
  std::string manifest;
  double actions = 0;
  {
    // Generate and write both encodings, then drop the in-memory trace so
    // it does not sit in the RSS baseline both phases inherit.
    const apps::MachineModel machine(cluster.truth);
    apps::AcquisitionConfig acq;
    acq.granularity = hwc::Granularity::Minimal;
    acq.compiler = hwc::kO3;
    acq.emit_trace = true;
    const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);
    actions = static_cast<double>(traced.trace.total_actions());
    manifest = tit::write_trace(traced.trace, dir.string(), "bench");
    titio::write_binary_trace(traced.trace, binary.string());
  }
  const double text_mib = static_cast<double>(tree_bytes(dir) - fs::file_size(binary)) / (1 << 20);
  const double bin_mib = static_cast<double>(fs::file_size(binary)) / (1 << 20);

  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};

  // Text path: parse the whole manifest into memory, then replay.
  const Phase text = run_phase([&] {
    const tit::Trace loaded = tit::load_trace(manifest);
    return core::replay(core::Backend::Msg, loaded, cluster.platform, cfg).simulated_time;
  });
  // Binary path: stream frames through a bounded 4 MiB buffer.
  const Phase bin = run_phase([&] {
    titio::Reader reader(binary.string(), titio::ReaderOptions{4u << 20});
    return core::replay(core::Backend::Msg, reader, cluster.platform, cfg).simulated_time;
  });

  // TITB preserves exact volume bits while the text renderer rounds
  // fractional volumes at %.6g, so the two simulated times may deviate in
  // the far decimals; report that deviation rather than hide it.
  const double dev = std::abs(text.sim_time - bin.sim_time) / std::max(bin.sim_time, 1e-300);
  std::printf("%-6s %5d %9.0f | text %7.2f MiB %7.3fs %8.0f a/s %8ld KiB"
              " | titb %7.2f MiB %7.3fs %8.0f a/s %8ld KiB | dev %.1e\n",
              lu.label().c_str(), np, actions, text_mib, text.seconds,
              actions / std::max(text.seconds, 1e-9), text.peak_rss_kib, bin_mib, bin.seconds,
              actions / std::max(bin.seconds, 1e-9), bin.peak_rss_kib, dev);
  std::fflush(stdout);
  fs::remove_all(dir);

  StreamRecord rec;
  rec.label = lu.label();
  rec.procs = np;
  rec.actions = actions;
  rec.text_mib = text_mib;
  rec.text_wall = text.seconds;
  rec.text_rate = actions / std::max(text.seconds, 1e-9);
  rec.text_rss_kib = text.peak_rss_kib;
  rec.bin_mib = bin_mib;
  rec.bin_wall = bin.seconds;
  rec.bin_rate = actions / std::max(bin.seconds, 1e-9);
  rec.bin_rss_kib = bin.peak_rss_kib;
  g_streams.push_back(rec);
}

// A ring shift across n ranks: every rank isends to its right neighbor and
// receives from its left, so once the latency phases clear, n transfers
// share the network simultaneously.  On a flat cluster each flow has the
// sender's up-link and the receiver's down-link to itself, i.e. the sharing
// graph decomposes into n tiny components.  Volumes are staggered so the
// completions land on n distinct simulation steps: the worst case for a
// full re-solve (every step re-rates every remaining flow, O(n) work x n
// steps) and the best case for the incremental kernel (each completion
// dirties one component, O(1) work per step).
tit::Trace ring_trace(int n) {
  tit::Trace trace(n);
  tit::Action a;
  for (int r = 0; r < n; ++r) {
    a = {};
    a.type = tit::ActionType::Init;
    a.proc = r;
    trace.push(a);
  }
  const auto volume = [n](int r) {
    return 1e6 * (1.0 + 0.5 * static_cast<double>(r) / static_cast<double>(n));
  };
  for (int r = 0; r < n; ++r) {
    a = {};
    a.proc = r;
    a.type = tit::ActionType::Isend;
    a.partner = (r + 1) % n;
    a.volume = volume(r);
    trace.push(a);
    a.type = tit::ActionType::Recv;
    a.partner = (r + n - 1) % n;
    a.volume = volume(a.partner);
    trace.push(a);
    a = {};
    a.proc = r;
    a.type = tit::ActionType::Wait;
    trace.push(a);
  }
  for (int r = 0; r < n; ++r) {
    a = {};
    a.type = tit::ActionType::Finalize;
    a.proc = r;
    trace.push(a);
  }
  return trace;
}

// Replays the n-flow ring under both solver strategies and reports the
// throughput ratio.  `required` > 0 turns the data point into a gate (the
// acceptance bar is 2x at 10k concurrent flows); the two predictions must
// also agree bit-for-bit or the comparison is meaningless.
void run_kernel_case(int n, double required) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  const tit::Trace trace = ring_trace(n);

  core::ReplayConfig cfg;
  cfg.sharing = sim::Sharing::MaxMin;
  titio::MemorySource source(trace);
  const core::ReplayResult full =
      core::replay_full_resolve(core::Backend::Msg, source, p, cfg);
  const core::ReplayResult inc = core::replay(core::Backend::Msg, trace, p, cfg);

  KernelRecord rec;
  rec.flows = n;
  rec.actions = static_cast<double>(trace.total_actions());
  rec.full_wall = full.wall_clock_seconds;
  rec.full_rate = rec.actions / std::max(full.wall_clock_seconds, 1e-9);
  rec.inc_wall = inc.wall_clock_seconds;
  rec.inc_rate = rec.actions / std::max(inc.wall_clock_seconds, 1e-9);
  rec.speedup = full.wall_clock_seconds / std::max(inc.wall_clock_seconds, 1e-9);
  rec.required = required;
  rec.identical = full.simulated_time == inc.simulated_time &&
                  full.engine_steps == inc.engine_steps;
  rec.pass = rec.identical && (required <= 0 || rec.speedup >= required);
  g_kernels.push_back(rec);

  std::printf("%6d flows %8.0f actions | full %8.3fs %10.0f a/s"
              " | incr %8.3fs %10.0f a/s | %6.1fx%s %s\n",
              n, rec.actions, rec.full_wall, rec.full_rate, rec.inc_wall, rec.inc_rate,
              rec.speedup, required > 0 ? " (gate >=2x)" : "",
              !rec.identical ? "MISMATCH" : (rec.pass ? (required > 0 ? "PASS" : "") : "FAIL"));
  std::fflush(stdout);
}

// The pay-for-what-you-use guarantee of src/obs: with no sink attached the
// hot paths see only a raw-pointer null check, so throughput must be
// indistinguishable from a build without the hooks.  That baseline no
// longer exists in this tree, so the bench asserts the dominating cost
// instead: a NullSink-attached replay pays the guard *plus* full virtual
// dispatch on every event, strictly more than the bare guard.  The budget
// is 5% of no-sink throughput: since the incremental kernel cut the
// engine's per-action cost severalfold, the few nanoseconds of per-step
// dispatch (on_time_advance plus one on_comm_progress per transferring
// comm, measured ~2% here) are now a visible fraction of a much smaller
// denominator — the budget catches accidental O(running) work or
// allocation creeping onto a hook path, not the irreducible indirect
// calls.  Best-of-N interleaved replays; best-of defeats scheduler noise.
SinkRecord run_sink_overhead(const exp::ClusterSetup& cluster) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 8;
  lu.iterations_override = 50;
  const apps::MachineModel machine(cluster.truth);
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);

  core::ReplayConfig no_sink_cfg;
  no_sink_cfg.rates = {cluster.truth.rate_in_cache};
  obs::NullSink null_sink;
  core::ReplayConfig null_sink_cfg = no_sink_cfg;
  null_sink_cfg.sink = &null_sink;

  SinkRecord rec;
  rec.actions = static_cast<double>(traced.trace.total_actions());
  rec.repetitions = 7;
  double best_none = 1e300, best_null = 1e300;
  for (int i = 0; i < rec.repetitions; ++i) {
    best_none = std::min(best_none, core::replay(core::Backend::Smpi, traced.trace,
                                                 cluster.platform, no_sink_cfg)
                                        .wall_clock_seconds);
    best_null = std::min(best_null, core::replay(core::Backend::Smpi, traced.trace,
                                                 cluster.platform, null_sink_cfg)
                                        .wall_clock_seconds);
  }
  rec.no_sink_wall = best_none;
  rec.no_sink_rate = rec.actions / std::max(best_none, 1e-9);
  rec.null_sink_wall = best_null;
  rec.null_sink_rate = rec.actions / std::max(best_null, 1e-9);
  rec.overhead = best_null / std::max(best_none, 1e-9) - 1.0;
  rec.pass = rec.overhead < rec.budget;

  std::printf("\nObservability hook cost (best of %d replays each, %s, %.0f actions):\n",
              rec.repetitions, lu.label().c_str(), rec.actions);
  std::printf("  no sink   %8.3fs %10.0f actions/s\n", rec.no_sink_wall, rec.no_sink_rate);
  std::printf("  NullSink  %8.3fs %10.0f actions/s\n", rec.null_sink_wall, rec.null_sink_rate);
  std::printf("  NullSink dispatch+walk cost over no-sink: %+.2f%% (budget < %.0f%%) -> %s\n",
              100.0 * rec.overhead, 100.0 * rec.budget, rec.pass ? "PASS" : "FAIL");
  std::fflush(stdout);
  return rec;
}

// Parallel scenario sweep (core::sweep): 16 calibration-ladder scenarios
// over one shared LU trace, replayed at 1 worker and at `jobs` workers.
// Two promises are checked: per-scenario results are bit-identical
// regardless of the worker count (parallelism is only across scenarios,
// never inside one), and on parallel hardware the sweep actually scales.
// The acceptance bar — >= 3x throughput at jobs=8 — arms only where the
// host can deliver it; on narrower machines the gate degrades gracefully
// (>= 2x on 4+ cores, >= 1.2x on 2+, informational on 1) and the recorded
// hardware_concurrency documents which bar this JSON was produced under.
SweepRecord run_sweep_case(const exp::ClusterSetup& cluster) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 8;
  lu.iterations_override = 25;
  const apps::MachineModel machine(cluster.truth);
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);

  const titio::SharedTrace shared(traced.trace);
  const std::vector<core::Scenario> scenarios =
      exp::rate_ladder(cluster.platform, cluster.truth.rate_in_cache, 16, 2.0);

  SweepRecord rec;
  rec.scenarios = static_cast<int>(scenarios.size());
  rec.jobs = 8;
  rec.hardware = std::thread::hardware_concurrency();
  rec.actions = static_cast<double>(traced.trace.total_actions());
  if (rec.hardware >= 8) {
    rec.required = 3.0;
  } else if (rec.hardware >= 4) {
    rec.required = 2.0;
  } else if (rec.hardware >= 2) {
    rec.required = 1.2;
  }

  core::SweepOptions serial;
  serial.jobs = 1;
  auto start = std::chrono::steady_clock::now();
  const std::vector<core::ScenarioOutcome> one = core::sweep(shared, scenarios, serial);
  rec.jobs1_wall = seconds_since(start);

  core::SweepOptions parallel_opts;
  parallel_opts.jobs = rec.jobs;
  start = std::chrono::steady_clock::now();
  const std::vector<core::ScenarioOutcome> many = core::sweep(shared, scenarios, parallel_opts);
  rec.jobsN_wall = seconds_since(start);

  rec.identical = one.size() == many.size();
  bool all_ok = true;
  for (std::size_t i = 0; rec.identical && i < one.size(); ++i) {
    all_ok = all_ok && one[i].ok && many[i].ok;
    rec.identical = one[i].ok == many[i].ok &&
                    one[i].result.simulated_time == many[i].result.simulated_time &&
                    one[i].result.engine_steps == many[i].result.engine_steps &&
                    one[i].result.actions_replayed == many[i].result.actions_replayed;
  }
  const double total_actions = rec.actions * rec.scenarios;
  rec.jobs1_rate = total_actions / std::max(rec.jobs1_wall, 1e-9);
  rec.jobsN_rate = total_actions / std::max(rec.jobsN_wall, 1e-9);
  rec.speedup = rec.jobs1_wall / std::max(rec.jobsN_wall, 1e-9);
  rec.pass = rec.identical && all_ok && (rec.required <= 0 || rec.speedup >= rec.required);

  std::printf("\nParallel scenario sweep (core::sweep, %d scenarios x %.0f actions, %s):\n",
              rec.scenarios, rec.actions, lu.label().c_str());
  std::printf("  jobs=1  %8.3fs %10.0f actions/s\n", rec.jobs1_wall, rec.jobs1_rate);
  std::printf("  jobs=%-2d %8.3fs %10.0f actions/s\n", rec.jobs, rec.jobsN_wall, rec.jobsN_rate);
  std::printf("  speedup %.2fx on %u-core host (gate >= %.1fx%s), results %s -> %s\n",
              rec.speedup, rec.hardware, rec.required,
              rec.required <= 0 ? ", informational on 1 core" : "",
              rec.identical ? "bit-identical" : "MISMATCH", rec.pass ? "PASS" : "FAIL");
  std::fflush(stdout);
  return rec;
}

// Monte Carlo sweep (core::mc_sweep): a 16-replicate perturbation grid over
// one shared LU trace, at 1 worker and at `jobs` workers.  The promise on
// top of the plain sweep's: not only is every replicate bit-identical at any
// worker count, the AGGREGATE — quantiles, CI, tornado-free summary — is
// byte-identical in the rendered JSON report, because platform sampling is a
// pure function of (seed, parameter identity) and the fold-back is in input
// order.  Gate tiers mirror the sweep gate (>= 3x at 8+ cores, >= 2x at 4+,
// >= 1.2x at 2+, informational on 1).
McRecord run_mc_sweep_case(const exp::ClusterSetup& cluster) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 8;
  lu.iterations_override = 25;
  const apps::MachineModel machine(cluster.truth);
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);
  const titio::SharedTrace shared(traced.trace);

  const auto base = std::make_shared<platform::Platform>(cluster.platform);
  platform::PerturbationSpec spec;
  spec.seed = 1;
  spec.host_speed = {platform::Distribution::Kind::Uniform, 0.1};
  spec.link_bandwidth = {platform::Distribution::Kind::LogNormal, 0.2};

  core::McScenario sc;
  sc.model = platform::PlatformModel(base, spec);
  sc.config.rates = {cluster.truth.rate_in_cache};
  sc.label = "mc";
  const std::vector<core::McScenario> scenarios = {sc};

  McRecord rec;
  rec.scenarios = 1;
  rec.replicates = 16;
  rec.jobs = 8;
  rec.hardware = std::thread::hardware_concurrency();
  rec.actions = static_cast<double>(traced.trace.total_actions());
  if (rec.hardware >= 8) {
    rec.required = 3.0;
  } else if (rec.hardware >= 4) {
    rec.required = 2.0;
  } else if (rec.hardware >= 2) {
    rec.required = 1.2;
  }

  core::McOptions serial;
  serial.replicates = rec.replicates;
  serial.jobs = 1;
  auto start = std::chrono::steady_clock::now();
  const core::McReport one = core::mc_sweep(shared, scenarios, serial);
  rec.jobs1_wall = seconds_since(start);

  core::McOptions parallel_opts = serial;
  parallel_opts.jobs = rec.jobs;
  start = std::chrono::steady_clock::now();
  const core::McReport many = core::mc_sweep(shared, scenarios, parallel_opts);
  rec.jobsN_wall = seconds_since(start);

  bool all_ok = true;
  for (const core::McScenarioReport& sr : one.scenarios) all_ok = all_ok && sr.failures == 0;
  rec.identical = core::mc_report_json(one) == core::mc_report_json(many);
  const double total_actions = rec.actions * rec.replicates;
  rec.jobs1_rate = total_actions / std::max(rec.jobs1_wall, 1e-9);
  rec.jobsN_rate = total_actions / std::max(rec.jobsN_wall, 1e-9);
  rec.speedup = rec.jobs1_wall / std::max(rec.jobsN_wall, 1e-9);
  rec.pass = rec.identical && all_ok && (rec.required <= 0 || rec.speedup >= rec.required);

  std::printf("\nMonte Carlo sweep (core::mc_sweep, %d scenario x %d replicates x %.0f actions,"
              " %s):\n",
              rec.scenarios, rec.replicates, rec.actions, spec.canonical().c_str());
  std::printf("  jobs=1  %8.3fs %10.0f actions/s\n", rec.jobs1_wall, rec.jobs1_rate);
  std::printf("  jobs=%-2d %8.3fs %10.0f actions/s\n", rec.jobs, rec.jobsN_wall, rec.jobsN_rate);
  std::printf("  speedup %.2fx on %u-core host (gate >= %.1fx%s), aggregate %s -> %s\n",
              rec.speedup, rec.hardware, rec.required,
              rec.required <= 0 ? ", informational on 1 core" : "",
              rec.identical ? "byte-identical" : "MISMATCH", rec.pass ? "PASS" : "FAIL");
  std::fflush(stdout);
  return rec;
}

// Checkpoint seeking (src/ckpt): extracting a LATE window of the timeline
// must not cost a full replay.  One recording replay captures consistent-cut
// snapshots; afterwards a cursor query of the last 2% of simulated time
// replays only [snapshot, to].  Both legs produce the window through the
// same obs machinery and must agree bitwise — a fast wrong answer fails the
// gate just like a slow right one.  Best-of-3 per leg, interleaved.
SeekRecord run_seek_case(const exp::ClusterSetup& cluster) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 8;
  lu.iterations_override = 100;
  const apps::MachineModel machine(cluster.truth);
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);
  const titio::SharedTrace shared(traced.trace);

  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};

  SeekRecord rec;
  rec.actions = static_cast<double>(traced.trace.total_actions());

  ckpt::ReplayCursor cursor(shared, cluster.platform, cfg, core::Backend::Smpi);
  auto start = std::chrono::steady_clock::now();
  const core::ReplayResult recorded = cursor.record();
  rec.record_wall = seconds_since(start);
  rec.checkpoints = cursor.checkpoints().checkpoints.size();
  rec.horizon = recorded.simulated_time;
  rec.window_from = 0.98 * rec.horizon;
  rec.window_to = rec.horizon;

  const auto cold_window = [&] {
    obs::TimelineSink sink;
    core::ReplayConfig cold_cfg = cfg;
    cold_cfg.sink = &sink;
    titio::SharedTrace::Cursor source = shared.cursor();
    core::replay(core::Backend::Smpi, source, cluster.platform, cold_cfg);
    std::vector<std::vector<obs::Interval>> window(static_cast<std::size_t>(sink.nranks()));
    for (int r = 0; r < sink.nranks(); ++r) {
      window[static_cast<std::size_t>(r)] =
          obs::slice(sink.intervals(r), rec.window_from, rec.window_to);
    }
    return window;
  };

  std::vector<std::vector<obs::Interval>> cold_intervals, warm_intervals;
  double best_cold = 1e300, best_seek = 1e300;
  for (int i = 0; i < 3; ++i) {
    start = std::chrono::steady_clock::now();
    cold_intervals = cold_window();
    best_cold = std::min(best_cold, seconds_since(start));
    start = std::chrono::steady_clock::now();
    ckpt::QueryResult q = cursor.query(rec.window_from, rec.window_to);
    best_seek = std::min(best_seek, seconds_since(start));
    warm_intervals = std::move(q.timelines);
  }
  rec.cold_wall = best_cold;
  rec.cold_rate = rec.actions / std::max(best_cold, 1e-9);
  rec.seek_wall = best_seek;
  // Effective rate: how fast the window ANSWER arrives, charged against the
  // whole trace — keeps speedup == rate ratio in the JSON.
  rec.seek_rate = rec.actions / std::max(best_seek, 1e-9);
  rec.speedup = best_cold / std::max(best_seek, 1e-9);

  rec.identical = cold_intervals.size() == warm_intervals.size();
  for (std::size_t r = 0; rec.identical && r < cold_intervals.size(); ++r) {
    rec.identical = cold_intervals[r].size() == warm_intervals[r].size();
    for (std::size_t k = 0; rec.identical && k < cold_intervals[r].size(); ++k) {
      const obs::Interval& a = cold_intervals[r][k];
      const obs::Interval& b = warm_intervals[r][k];
      rec.identical = a.state == b.state && a.begin == b.begin && a.end == b.end &&
                      a.bytes == b.bytes && a.partner == b.partner && a.site == b.site;
    }
  }
  rec.pass = rec.identical && rec.speedup >= rec.required;

  std::printf("\nCheckpoint seek (src/ckpt, %s, %.0f actions, %zu snapshot(s),"
              " record %0.3fs):\n",
              lu.label().c_str(), rec.actions, rec.checkpoints, rec.record_wall);
  std::printf("  window = last 2%% of %.4fs simulated, best of 3 per leg\n", rec.horizon);
  std::printf("  cold  full replay + slice %8.3fs %10.0f actions/s\n", rec.cold_wall,
              rec.cold_rate);
  std::printf("  seek  warm cursor query   %8.3fs %10.0f actions/s (effective)\n",
              rec.seek_wall, rec.seek_rate);
  std::printf("  speedup %.1fx (gate >= %.0fx), window %s -> %s\n", rec.speedup, rec.required,
              rec.identical ? "bitwise identical" : "MISMATCH", rec.pass ? "PASS" : "FAIL");
  std::fflush(stdout);
  return rec;
}

long self_peak_rss_kib() {
#if defined(__linux__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return -1;
}

void write_report(const std::string& path, const SinkRecord& sink, const SweepRecord& sweep,
                  const McRecord& mc, const SeekRecord& seek) {
  std::ofstream out(path);
  out.precision(12);
  out << "{\n  \"bench\": \"replay_speed\",\n";
  out << "  \"peak_rss_kib\": " << self_peak_rss_kib() << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < g_cases.size(); ++i) {
    const CaseRecord& c = g_cases[i];
    out << "    {\"label\": \"" << c.label << "\", \"procs\": " << c.procs
        << ", \"iters\": " << c.iters << ", \"actions\": " << c.actions
        << ",\n     \"smpi\": {\"wall_seconds\": " << c.smpi_wall
        << ", \"actions_per_second\": " << c.smpi_rate
        << "},\n     \"msg\": {\"wall_seconds\": " << c.msg_wall
        << ", \"actions_per_second\": " << c.msg_rate << "}}"
        << (i + 1 < g_cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"streaming\": [\n";
  for (std::size_t i = 0; i < g_streams.size(); ++i) {
    const StreamRecord& s = g_streams[i];
    out << "    {\"label\": \"" << s.label << "\", \"procs\": " << s.procs
        << ", \"actions\": " << s.actions
        << ",\n     \"text\": {\"disk_mib\": " << s.text_mib
        << ", \"wall_seconds\": " << s.text_wall
        << ", \"actions_per_second\": " << s.text_rate
        << ", \"peak_rss_kib\": " << s.text_rss_kib
        << "},\n     \"titb\": {\"disk_mib\": " << s.bin_mib
        << ", \"wall_seconds\": " << s.bin_wall << ", \"actions_per_second\": " << s.bin_rate
        << ", \"peak_rss_kib\": " << s.bin_rss_kib << "}}"
        << (i + 1 < g_streams.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"incremental_kernel\": [\n";
  for (std::size_t i = 0; i < g_kernels.size(); ++i) {
    const KernelRecord& k = g_kernels[i];
    out << "    {\"flows\": " << k.flows << ", \"actions\": " << k.actions
        << ",\n     \"full\": {\"wall_seconds\": " << k.full_wall
        << ", \"actions_per_second\": " << k.full_rate
        << "},\n     \"incremental\": {\"wall_seconds\": " << k.inc_wall
        << ", \"actions_per_second\": " << k.inc_rate << "},\n     \"speedup\": " << k.speedup
        << ", \"required_speedup\": " << k.required
        << ", \"identical_prediction\": " << (k.identical ? "true" : "false")
        << ", \"pass\": " << (k.pass ? "true" : "false") << "}"
        << (i + 1 < g_kernels.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"sweep\": {\n";
  out << "    \"scenarios\": " << sweep.scenarios << ",\n";
  out << "    \"jobs\": " << sweep.jobs << ",\n";
  out << "    \"hardware_concurrency\": " << sweep.hardware << ",\n";
  out << "    \"actions_per_scenario\": " << sweep.actions << ",\n";
  out << "    \"jobs1\": {\"wall_seconds\": " << sweep.jobs1_wall
      << ", \"actions_per_second\": " << sweep.jobs1_rate << "},\n";
  out << "    \"jobsN\": {\"wall_seconds\": " << sweep.jobsN_wall
      << ", \"actions_per_second\": " << sweep.jobsN_rate << "},\n";
  out << "    \"speedup\": " << sweep.speedup << ",\n";
  out << "    \"required_speedup\": " << sweep.required << ",\n";
  out << "    \"identical_results\": " << (sweep.identical ? "true" : "false") << ",\n";
  out << "    \"pass\": " << (sweep.pass ? "true" : "false") << "\n  },\n";
  out << "  \"mc_sweep\": {\n";
  out << "    \"scenarios\": " << mc.scenarios << ",\n";
  out << "    \"replicates\": " << mc.replicates << ",\n";
  out << "    \"jobs\": " << mc.jobs << ",\n";
  out << "    \"hardware_concurrency\": " << mc.hardware << ",\n";
  out << "    \"actions_per_replicate\": " << mc.actions << ",\n";
  out << "    \"jobs1\": {\"wall_seconds\": " << mc.jobs1_wall
      << ", \"actions_per_second\": " << mc.jobs1_rate << "},\n";
  out << "    \"jobsN\": {\"wall_seconds\": " << mc.jobsN_wall
      << ", \"actions_per_second\": " << mc.jobsN_rate << "},\n";
  out << "    \"speedup\": " << mc.speedup << ",\n";
  out << "    \"required_speedup\": " << mc.required << ",\n";
  out << "    \"identical_aggregate\": " << (mc.identical ? "true" : "false") << ",\n";
  out << "    \"pass\": " << (mc.pass ? "true" : "false") << "\n  },\n";
  out << "  \"seek\": {\n";
  out << "    \"actions\": " << seek.actions << ",\n";
  out << "    \"checkpoints\": " << seek.checkpoints << ",\n";
  out << "    \"record_wall_seconds\": " << seek.record_wall << ",\n";
  out << "    \"window_from\": " << seek.window_from << ",\n";
  out << "    \"window_to\": " << seek.window_to << ",\n";
  out << "    \"horizon\": " << seek.horizon << ",\n";
  out << "    \"cold\": {\"wall_seconds\": " << seek.cold_wall
      << ", \"actions_per_second\": " << seek.cold_rate << "},\n";
  out << "    \"warm\": {\"wall_seconds\": " << seek.seek_wall
      << ", \"actions_per_second\": " << seek.seek_rate << "},\n";
  out << "    \"speedup\": " << seek.speedup << ",\n";
  out << "    \"required_speedup\": " << seek.required << ",\n";
  out << "    \"identical_window\": " << (seek.identical ? "true" : "false") << ",\n";
  out << "    \"pass\": " << (seek.pass ? "true" : "false") << "\n  },\n";
  out << "  \"null_sink\": {\n";
  out << "    \"actions\": " << sink.actions << ",\n";
  out << "    \"repetitions\": " << sink.repetitions << ",\n";
  out << "    \"no_sink\": {\"wall_seconds\": " << sink.no_sink_wall
      << ", \"actions_per_second\": " << sink.no_sink_rate << "},\n";
  out << "    \"with_null_sink\": {\"wall_seconds\": " << sink.null_sink_wall
      << ", \"actions_per_second\": " << sink.null_sink_rate << "},\n";
  out << "    \"overhead_fraction\": " << sink.overhead << ",\n";
  out << "    \"budget_fraction\": " << sink.budget << ",\n";
  out << "    \"pass\": " << (sink.pass ? "true" : "false") << "\n  }\n}\n";
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace

int main() {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  exp::print_preamble("Replay efficiency (wall-clock & action rate)",
                      "efficiency claim of RR-8092 / [5]", bd.name, -1);
  std::printf("%-6s %5s %6s | %9s | %20s | %20s | %s\n", "inst.", "procs", "iters", "actions",
              "SMPI replay (rate)", "MSG replay (rate)", "speedup-vs-real");
  run_case(bd, 'A', 4, 25, "");
  run_case(bd, 'B', 8, 25, "");
  run_case(bd, 'B', 32, 25, "");
  run_case(bd, 'B', 64, 25, "");
  run_case(bd, 'C', 64, 10, "");
  run_case(bd, 'B', 8, 250, "(full-length NPB run)");

  std::printf("\nTrace I/O paths: text-parse-then-replay vs. binary streaming replay\n");
  std::printf("(parse+replay wall-clock; peak RSS per forked phase on Linux, -1 elsewhere;\n");
  std::printf(" dev = relative simulated-time deviation from %%.6g rounding in the text form)\n");
  run_streaming_case(bd, 'B', 8, 25);
  run_streaming_case(bd, 'B', 32, 25);
  run_streaming_case(bd, 'B', 8, 250);

  std::printf("\nIncremental kernel: Resolve::Full vs Resolve::Incremental\n");
  std::printf("(MSG back-end, max-min sharing, n-rank ring of simultaneous staggered flows;\n");
  std::printf(" acceptance gate: incremental >= 2x full-resolve throughput at 10k flows)\n");
  run_kernel_case(1000, 0.0);
  run_kernel_case(10000, 2.0);
  bool kernels_pass = true;
  for (const KernelRecord& k : g_kernels) kernels_pass = kernels_pass && k.pass;

  const SweepRecord sweep = run_sweep_case(bd);
  const McRecord mc = run_mc_sweep_case(bd);
  const SeekRecord seek = run_seek_case(bd);
  const SinkRecord sink = run_sink_overhead(bd);
  write_report("BENCH_replay_speed.json", sink, sweep, mc, seek);
  std::printf("\nmachine-readable report -> BENCH_replay_speed.json\n");
  return sink.pass && kernels_pass && sweep.pass && mc.pass && seek.pass ? 0 : 1;
}
