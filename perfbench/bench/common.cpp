#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace tir;

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  // splitmix64 finalizer over the three words.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull) ^
                    (index * 0xD1B54A32D192ED03ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

// --- Tracer ------------------------------------------------------------------

namespace {
thread_local std::int64_t t_current_span = -1;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  saved_parent_ = t_current_span;
  const std::lock_guard<std::mutex> lock(tracer.mutex_);
  index_ = static_cast<std::int64_t>(tracer.spans_.size());
  tracer.spans_.push_back({name, tracer.now_ns(), -1, saved_parent_, tracer.run_});
  t_current_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  }
  t_current_span = saved_parent_;
}

std::map<std::string, Tracer::NameSummary> Tracer::summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    NameSummary& n = out[s.name];
    ++n.count;
    n.total_s += (s.end_ns - s.start_ns) * 1e-9;
    n.self_s += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ostringstream out;
  out << "{\"run\":" << json_string(run_) << ",\"summary\":{";
  bool first = true;
  for (const auto& [name, s] : summary()) {
    out << (first ? "" : ",") << json_string(name) << ":{\"count\":" << s.count
        << ",\"total_s\":" << json_number(s.total_s) << ",\"self_s\":" << json_number(s.self_s)
        << "}";
    first = false;
  }
  out << "},\"spans\":[";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"run\":" << json_string(s.run) << "}";
    }
  }
  out << "]}\n";
  std::filesystem::create_directories(path.parent_path());
  std::ofstream file(path);
  file << out.str();
  if (!file) throw std::runtime_error("cannot write " + path.string());
}

// --- inputs --------------------------------------------------------------------

Acquisition acquire_lu(const exp::ClusterSetup& cluster, char cls, int nprocs, int iterations,
                       std::uint64_t seed) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = nprocs;
  lu.iterations_override = iterations;
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.probe_costs = cluster.probe_costs;
  acq.emit_trace = true;
  acq.seed = seed;
  const apps::MachineModel machine(cluster.truth, acq.noise, seed);
  apps::RunResult run = apps::run_lu(lu, cluster.platform, machine, acq);
  return {std::move(run.trace), run.wall_time};
}

core::CalibrationRequest calibration_request(const exp::ClusterSetup& cluster, char cls,
                                             int nprocs, std::uint64_t seed) {
  core::CalibrationRequest request;
  request.procedure = "cache-aware";
  request.classes = std::string(1, cls);
  request.truth = cluster.truth;
  request.seed = seed;
  request.instance_class = cls;
  request.instance_nprocs = nprocs;
  return request;
}

double error_pct(double predicted, double reference) {
  return 100.0 * std::fabs(predicted - reference) / reference;
}

bool same_prediction(const core::ReplayResult& a, const core::ReplayResult& b) {
  return a.simulated_time == b.simulated_time && a.actions_replayed == b.actions_replayed &&
         a.engine_steps == b.engine_steps;
}

// --- Report ----------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) problems_.push_back(name + " is not finite");
  metrics_[name] = {value, unit};
}

void Report::timing(const std::string& name, double value, const std::string& unit,
                    std::size_t n) {
  metric(name, value, unit);
  detail("samples." + name, std::to_string(n));
}

void Report::ratio(const std::string& name, const Ratio& r, const std::string& unit) {
  metric(name, r.value(), unit);
  detail("base." + name, "{\"numerator\":" + json_number(r.numerator) +
                             ",\"denominator\":" + json_number(r.denominator) + "}");
}

void Report::tail(const std::string& name, const std::vector<double>& values, double q,
                  const std::string& unit) {
  const std::optional<double> v = tail_percentile(values, q);
  if (!v) {
    problems_.push_back(name + ": " + std::to_string(values.size()) +
                        " samples cannot support this percentile");
    return;
  }
  timing(name, *v, unit, values.size());
}

void Report::input(const std::string& name, std::uint64_t content_hash, std::uint64_t actions) {
  char hash[20];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(content_hash));
  inputs_.push_back("{\"name\":" + json_string(name) + ",\"content_hash\":\"" + hash +
                    "\",\"actions\":" + std::to_string(actions) + "}");
}

void Report::detail(const std::string& key, const std::string& json) { details_[key] = json; }

void Report::check(const std::string& name, bool ok) {
  auto [it, inserted] = checks_.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
}

bool Report::correct() const {
  if (!problems_.empty() || attempts.failed != 0 || attempts.attempted == 0) return false;
  return std::all_of(checks_.begin(), checks_.end(), [](const auto& c) { return c.second; });
}

void Report::print(const Options& options) const {
  std::ostringstream d;
  d << "{\"perfbench\":{\"workload\":" << json_string(options.workload)
    << ",\"seed\":" << options.seed << ",\"trace\":" << (options.trace ? 1 : 0)
    << ",\"seconds\":" << json_number(options.seconds) << ",\"inputs\":[";
  for (std::size_t i = 0; i < inputs_.size(); ++i) d << (i ? "," : "") << inputs_[i];
  d << "],\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : checks_) {
    d << (first ? "" : ",") << json_string(name) << ":" << (ok ? "true" : "false");
    first = false;
  }
  const Ratio failed = attempts.failed_ratio();
  d << "},\"failed_ratio\":{\"value\":" << json_number(failed.value())
    << ",\"failed\":" << attempts.failed << ",\"attempted\":" << attempts.attempted << "}";
  for (const auto& [key, json] : details_) d << "," << json_string(key) << ":" << json;
  d << ",\"problems\":[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    d << (i ? "," : "") << json_string(problems_[i]);
  }
  d << "]}}";
  std::printf("%s\n", d.str().c_str());

  std::ostringstream r;
  r << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempts.attempted
    << ",\"failed\":" << attempts.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    r << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(m.value)
      << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  r << "}}";
  std::printf("%s\n", r.str().c_str());
  std::fflush(stdout);
}

std::string host_json(double sweep_cpu_per_wall) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream out;
  out << "{\"nproc\":" << online << ",\"jobs\":" << bench_jobs()
      << ",\"core.sweep_cpu_per_wall\":" << json_number(sweep_cpu_per_wall)
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

int bench_jobs() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(online, 1, 4));
}

void report_end_to_end(Report& report, const Figures& f, const Samples& setup_s) {
  report.timing("setup_s", setup_s.median(), "s", setup_s.count());
  report.detail("totals", "{\"predictions\":" + std::to_string(f.predictions) +
                              ",\"actions\":" + std::to_string(f.actions) +
                              ",\"wall_s\":" + json_number(f.wall_s) +
                              ",\"cpu_s\":" + json_number(f.cpu_s) + "}");
  Samples rate, action_rate, cpu_ms;
  Completion begin;
  for (std::size_t end = f.window; end <= f.completions.size(); end += f.window) {
    const Completion& last = f.completions[end - 1];
    std::uint64_t actions = 0;
    for (std::size_t i = end - f.window; i < end; ++i) actions += f.completions[i].actions;
    const double dt = last.t_s - begin.t_s;
    rate.add(static_cast<double>(f.window) / dt);
    action_rate.add(static_cast<double>(actions) / dt);
    cpu_ms.add(1e3 * (last.cpu_s - begin.cpu_s) / static_cast<double>(f.window));
    begin = last;
  }
  if (rate.count() < kMinWindows || f.error_pct.count() == 0) {
    report.check("enough completed predictions", false);
    return;
  }
  report.timing("predictions_per_s", rate.median(), "1/s", rate.count());
  report.timing("actions_per_s", action_rate.median(), "1/s", action_rate.count());
  report.timing("cpu_ms_per_prediction", cpu_ms.median(), "ms", cpu_ms.count());
  report.timing("prediction_p50_ms", f.latency_ms.median(), "ms", f.latency_ms.count());
  report.tail("prediction_p90_ms", f.latency_ms.values, 0.9, "ms");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  report.timing("pred_error_pct", f.error_pct.median(), "%", f.error_pct.count());
}

void report_trace_overhead(Report& report, const Figures& untraced, const Figures& traced) {
  // Whole-section throughput: the traced half is too short for many windows.
  const double plain = static_cast<double>(untraced.predictions) / untraced.wall_s;
  const double with_spans = static_cast<double>(traced.predictions) / traced.wall_s;
  report.ratio("bench.trace_overhead_ratio", {plain - with_spans, with_spans});
}

}  // namespace perfbench
