// bench_gates: the five performance gates that perfbench has no workload for.
//
// Each gate times a reference leg against the leg under test in at least
// five alternated pairs, requires both legs to give the same answer, and writes
// one flat record into BENCH_gates.json:
//
//   {name, layer, unit, better, values[N], median, mad, cpu_seconds,
//    cpu_per_wall, bar, identical}
//
// values[i] is pair i's ratio of the two legs' wall-clock times; median and
// MAD (median absolute deviation) come from perfbench's quantile helpers
// (perfbench/bench/stats.cpp).  cpu_seconds is the process CPU time both
// legs spent over all pairs; cpu_per_wall is the median CPU/wall of the leg
// under test, so a parallel gate that misses its bar on a host that withheld
// cores can be told apart from a code regression.  The file also holds one
// host record.  bench/compare_bench.py judges the records: a missed bar, a
// false identity or a drop against bench/baselines/BENCH_gates.json fails.
//
//   $ ./bench_gates        # takes no flags, writes ./BENCH_gates.json
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ckpt/cursor.hpp"
#include "core/replay.hpp"
#include "core/session.hpp"
#include "core/sweep.hpp"
#include "exp/experiments.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "stats.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "tit/trace.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

using namespace tir;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// What a gate promises: its bar, and which way its ratio improves.
struct Gate {
  const char* name;
  const char* layer;
  const char* unit;
  bool higher_is_better;  ///< true: reference/test time (a speed-up);
                          ///< false: test/reference time (an overhead)
  double bar;
  int pairs;  ///< at least 5; more where a leg is short and the bar is near
};

struct Record {
  Gate gate;
  std::vector<double> values;
  double median = 0.0;
  double mad = 0.0;
  double cpu_seconds = 0.0;
  double cpu_per_wall = 0.0;
  bool identical = true;

  bool meets_bar() const {
    return gate.higher_is_better ? median >= gate.bar : median <= gate.bar;
  }
};

struct Leg {
  double wall = 0.0;
  double cpu = 0.0;
};

template <class Fn>
auto timed(Fn&& fn, Leg& leg) {
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  auto result = fn();
  leg.wall = std::chrono::duration<double>(Clock::now() - t0).count();
  leg.cpu = process_cpu_seconds() - cpu0;
  return result;
}

/// Runs gate.pairs pairs of `reference` and `test`, alternating which leg goes
/// first so that neither always runs on a warmer cache.  Both return a
/// comparable answer; every answer must equal the first one.
template <class Ref, class Test>
Record run_pairs(const Gate& gate, Ref&& reference, Test&& test) {
  Record rec;
  rec.gate = gate;
  std::vector<double> cpu_per_wall;
  std::vector<decltype(reference())> answers;
  for (int i = 0; i < gate.pairs; ++i) {
    Leg ref, cand;
    if (i % 2 == 0) answers.push_back(timed(reference, ref));
    answers.push_back(timed(test, cand));
    if (i % 2 == 1) answers.push_back(timed(reference, ref));
    rec.values.push_back(gate.higher_is_better ? ref.wall / cand.wall : cand.wall / ref.wall);
    rec.cpu_seconds += ref.cpu + cand.cpu;
    cpu_per_wall.push_back(cand.cpu / cand.wall);
  }
  for (const auto& answer : answers) rec.identical = rec.identical && answer == answers.front();
  rec.median = perfbench::median(rec.values);
  std::vector<double> deviations;
  for (double v : rec.values) deviations.push_back(std::abs(v - rec.median));
  rec.mad = perfbench::median(deviations);
  rec.cpu_per_wall = perfbench::median(cpu_per_wall);
  std::printf("%-24s median %7.3f %-5s (bar %s %.2f, MAD %.3f, %d pairs, CPU/wall %.2f, %s) %s\n",
              gate.name, rec.median, gate.unit, gate.higher_is_better ? ">=" : "<=", gate.bar,
              rec.mad, gate.pairs, rec.cpu_per_wall, rec.identical ? "identical" : "MISMATCH",
              rec.identical && rec.meets_bar() ? "PASS" : "FAIL");
  std::fflush(stdout);
  return rec;
}

/// The three figures a prediction reports; equality is bitwise.
struct Prediction {
  double simulated_time = 0.0;
  double engine_steps = 0.0;
  double actions_replayed = 0.0;
  bool operator==(const Prediction&) const = default;
};

Prediction prediction(const core::ReplayResult& r) {
  return {r.simulated_time, static_cast<double>(r.engine_steps),
          static_cast<double>(r.actions_replayed)};
}

tit::Trace lu_trace(const exp::ClusterSetup& cluster, char cls, int np, int iterations) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = np;
  lu.iterations_override = iterations;
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  return apps::run_lu(lu, cluster.platform, apps::MachineModel(cluster.truth), acq).trace;
}

// A ring shift across n ranks: every rank isends to its right neighbour and
// receives from its left, so n transfers share the network at once, each in
// its own tiny component of the sharing graph.  Staggered volumes make the
// completions land on n distinct steps: the worst case for a full re-solve
// (O(n) work per step) and the best case for the incremental kernel (one
// dirty component per step).
tit::Trace ring_trace(int n) {
  tit::Trace trace(n);
  const auto push = [&](int r, tit::ActionType type, int partner, double volume) {
    tit::Action a;
    a.proc = r;
    a.type = type;
    a.partner = partner;
    a.volume = volume;
    trace.push(a);
  };
  const auto volume = [n](int r) { return 1e6 * (1.0 + 0.5 * r / static_cast<double>(n)); };
  for (int r = 0; r < n; ++r) push(r, tit::ActionType::Init, -1, 0);
  for (int r = 0; r < n; ++r) {
    push(r, tit::ActionType::Isend, (r + 1) % n, volume(r));
    push(r, tit::ActionType::Recv, (r + n - 1) % n, volume((r + n - 1) % n));
    push(r, tit::ActionType::Wait, -1, 0);
  }
  for (int r = 0; r < n; ++r) push(r, tit::ActionType::Finalize, -1, 0);
  return trace;
}

// sim.incremental_speedup: the 10k-flow ring under max-min sharing, full
// re-solve against the incremental kernel; the predictions must match.
Record incremental_gate() {
  constexpr int kFlows = 10000;
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = kFlows;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  const tit::Trace trace = ring_trace(kFlows);
  core::ReplayConfig cfg;
  cfg.sharing = sim::Sharing::MaxMin;
  return run_pairs(
      {"sim.incremental_speedup", "sim", "x", true, 2.0, 5},
      [&] {
        titio::MemorySource source(trace);
        return prediction(core::replay_full_resolve(core::Backend::Msg, source, p, cfg));
      },
      [&] { return prediction(core::replay(core::Backend::Msg, trace, p, cfg)); });
}

// ckpt.seek_speedup: the last 2% of a B-8 run's simulated time, cut from a
// cold replay's timeline against a warm checkpoint-cursor query; the two
// windows must be bitwise equal.
Record seek_gate(const exp::ClusterSetup& cluster) {
  const titio::SharedTrace shared(lu_trace(cluster, 'B', 8, 100));
  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};
  ckpt::ReplayCursor cursor(shared, cluster.platform, cfg, core::Backend::Smpi);
  const double horizon = cursor.record().simulated_time;
  const double from = 0.98 * horizon;

  using Window = std::vector<std::vector<std::tuple<int, double, double, double, int, long>>>;
  const auto window_of = [](const std::vector<std::vector<obs::Interval>>& timelines) {
    Window w;
    for (const auto& rank : timelines) {
      w.emplace_back();
      for (const obs::Interval& i : rank) {
        w.back().emplace_back(static_cast<int>(i.state), i.begin, i.end, i.bytes, i.partner,
                              static_cast<long>(i.site));
      }
    }
    return w;
  };
  return run_pairs(
      {"ckpt.seek_speedup", "ckpt", "x", true, 5.0, 11},
      [&] {
        obs::TimelineSink sink;
        core::ReplayConfig cold = cfg;
        cold.sink = &sink;
        titio::SharedTrace::Cursor source = shared.cursor();
        core::replay(core::Backend::Smpi, source, cluster.platform, cold);
        std::vector<std::vector<obs::Interval>> timelines;
        for (int r = 0; r < sink.nranks(); ++r) {
          timelines.push_back(obs::slice(sink.intervals(r), from, horizon));
        }
        return window_of(timelines);
      },
      [&] { return window_of(cursor.query(from, horizon).timelines); });
}

// obs.null_sink_overhead: a B-8 replay with a NullSink attached against one
// with no sink.  The NullSink pays the guard plus a virtual call per event,
// so this bounds the hooks' cost from above; the prediction must not move.
Record null_sink_gate(const exp::ClusterSetup& cluster) {
  const tit::Trace trace = lu_trace(cluster, 'B', 8, 50);
  core::ReplayConfig none;
  none.rates = {cluster.truth.rate_in_cache};
  obs::NullSink null_sink;
  core::ReplayConfig with_sink = none;
  with_sink.sink = &null_sink;
  return run_pairs(
      {"obs.null_sink_overhead", "obs", "ratio", false, 1.05, 41},
      [&] { return prediction(core::replay(core::Backend::Smpi, trace, cluster.platform, none)); },
      [&] {
        return prediction(core::replay(core::Backend::Smpi, trace, cluster.platform, with_sink));
      });
}

// core.sweep_speedup: 16 calibration-ladder scenarios over one shared B-8
// trace at jobs=1 against jobs=8; every scenario's result must be bitwise
// the same.  The bar follows the host: 3x on 8+ cores, 2x on 4+, 1.2x on 2+.
Record sweep_gate(const exp::ClusterSetup& cluster) {
  const titio::SharedTrace shared(lu_trace(cluster, 'B', 8, 25));
  const std::vector<core::Scenario> scenarios =
      exp::rate_ladder(cluster.platform, cluster.truth.rate_in_cache, 16, 2.0);
  const unsigned cores = std::thread::hardware_concurrency();
  const double bar = cores >= 8 ? 3.0 : cores >= 4 ? 2.0 : cores >= 2 ? 1.2 : 0.0;
  const auto leg = [&](int jobs) {
    core::SweepOptions options;
    options.jobs = jobs;
    std::vector<Prediction> out;
    for (const core::ScenarioOutcome& o : core::sweep(shared, scenarios, options)) {
      if (!o.ok) throw std::runtime_error("sweep scenario failed: " + o.error);
      out.push_back(prediction(o.result));
    }
    return out;
  };
  return run_pairs({"core.sweep_speedup", "core", "x", true, bar, 11}, [&] { return leg(1); },
                   [&] { return leg(8); });
}

// svc.cache_speedup: serial jobs/s of a cached tird against one that keeps
// nothing (every job decodes, calibrates and replays); the predictions on
// the wire must be bitwise the same.
Record cache_gate(const exp::ClusterSetup& cluster, const fs::path& work) {
  constexpr int kJobs = 32;
  const std::string trace_path = (work / "lu_A8.titb").string();
  // Two iterations: the cache, not the replay, should dominate the ratio.
  titio::write_binary_trace(lu_trace(cluster, 'A', 8, 2), trace_path);

  svc::JobRequest request;
  request.op = "predict";
  request.trace = trace_path;
  request.calibrate = true;
  request.calibration.procedure = "cache-aware";
  request.calibration.truth = cluster.truth;
  request.calibration.instance_class = 'A';
  request.calibration.instance_nprocs = 8;
  request.scenarios.emplace_back().label = "calibrated";

  const auto start = [&](const char* socket, std::size_t cache_bytes) {
    svc::ServerOptions options;
    options.endpoint = "unix:" + (work / socket).string();
    options.cache_bytes = cache_bytes;
    auto server = std::make_unique<svc::Server>(options);
    server->start();
    return server;
  };
  const auto cached = start("cached.sock", svc::ServerOptions{}.cache_bytes);
  const auto cold = start("cold.sock", 0);
  const auto leg = [&](svc::Server& server) {
    svc::Client client(server.endpoint());
    std::vector<Prediction> out;
    for (int j = 0; j < kJobs; ++j) {
      const svc::JobResult r = client.submit(request);
      if (!r.done) throw std::runtime_error("tird job failed: [" + r.error_code + "] " + r.error);
      for (const svc::Json& s : r.scenarios) {
        out.push_back({s.num_or("simulated_time", -1.0), s.num_or("engine_steps", -1.0),
                       s.num_or("actions_replayed", -1.0)});
      }
    }
    return out;
  };
  svc::Client(cached->endpoint()).submit(request);  // prime the caches
  Record rec = run_pairs({"svc.cache_speedup", "svc", "x", true, 3.0, 11},
                         [&] { return leg(*cold); }, [&] { return leg(*cached); });
  for (svc::Server* s : {cached.get(), cold.get()}) {
    s->shutdown();
    s->wait();
  }
  return rec;
}

std::string json_string(const std::string& s) { return "\"" + s + "\""; }

void write_report(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path);
  out.precision(17);
  out << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(TIR_COMPILER)
      << ", \"build_type\": " << json_string(TIR_BUILD_TYPE) << "},\n  \"gates\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\"name\": " << json_string(r.gate.name) << ", \"layer\": "
        << json_string(r.gate.layer) << ", \"unit\": " << json_string(r.gate.unit)
        << ", \"better\": " << json_string(r.gate.higher_is_better ? "higher" : "lower")
        << ",\n     \"values\": [";
    for (std::size_t k = 0; k < r.values.size(); ++k) out << (k ? ", " : "") << r.values[k];
    out << "],\n     \"median\": " << r.median << ", \"mad\": " << r.mad
        << ", \"cpu_seconds\": " << r.cpu_seconds << ", \"cpu_per_wall\": " << r.cpu_per_wall
        << ", \"bar\": " << r.gate.bar
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main() {
  // Per process, so two concurrent runs never share a socket path.
  const fs::path work =
      fs::temp_directory_path() / ("bench_gates." + std::to_string(::getpid()));
  fs::create_directories(work);
  try {
    const exp::ClusterSetup cluster = exp::bordereau_setup();
    std::printf("bench_gates: %u-core host\n", std::thread::hardware_concurrency());
    const std::vector<Record> records = {incremental_gate(), seek_gate(cluster),
                                         null_sink_gate(cluster), sweep_gate(cluster),
                                         cache_gate(cluster, work)};
    write_report("BENCH_gates.json", records);
    std::printf("report -> BENCH_gates.json\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gates: %s\n", e.what());
    fs::remove_all(work);
    return 1;
  }
  fs::remove_all(work);
  return 0;
}
