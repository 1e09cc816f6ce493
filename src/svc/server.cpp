#include "svc/server.hpp"

#include <sys/socket.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/binio.hpp"
#include "core/calibration.hpp"
#include "core/mc_sweep.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/sweep.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "platform/parse.hpp"
#include "titio/reader.hpp"

namespace tir::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t hash_bytes(std::uint64_t h, const std::string& bytes) {
  // Fold 8 bytes at a time; the tail byte-by-byte.  Stable across runs.
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i + b])) << (8 * b);
    }
    h = binio::mix64(h, chunk);
  }
  for (; i < bytes.size(); ++i) {
    h = binio::mix64(h, static_cast<unsigned char>(bytes[i]));
  }
  return binio::mix64(h, bytes.size());
}

std::string hash_hex(std::uint64_t h) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

Json cache_stats_json(const CacheStats& s) {
  Json j = Json::object();
  j.set("hits", s.hits);
  j.set("misses", s.misses);
  j.set("evictions", s.evictions);
  j.set("uncacheable", s.uncacheable);
  j.set("bytes", s.bytes);
  j.set("peak_bytes", s.peak_bytes);
  j.set("entries", s.entries);
  j.set("capacity_bytes", s.capacity_bytes);
  return j;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      traces_(options_.cache_bytes, "svc.cache.load"),
      // Platforms and calibrated rates are tiny next to decoded traces; give
      // them fixed slices that vanish with the trace budget so cache_bytes=0
      // really is the cold path end to end (the bench depends on that).
      platforms_(options_.cache_bytes == 0 ? 0 : (32ull << 20)),
      calibrations_(options_.cache_bytes == 0 ? 0 : (1ull << 20)),
      results_(options_.cache_bytes == 0 ? 0 : (8ull << 20)) {}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() {
  listener_ = std::make_unique<Listener>(options_.endpoint);
  const int workers = core::resolve_jobs(options_.workers);
  worker_count_ = workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  if (listener_) listener_->close();  // unblocks accept()
  queue_.close();                     // stops admissions, lets workers drain
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [&] { return stopping_.load(); });
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Every admitted job has now drained and streamed its results; release the
  // connection readers (they block in recv until their peer hangs up).
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const std::shared_ptr<Client>& client : clients_) {
      if (client->conn.valid()) ::shutdown(client->conn.fd(), SHUT_RDWR);
    }
  }
  for (;;) {
    std::thread t;
    {
      const std::lock_guard<std::mutex> lock(threads_mutex_);
      if (conn_threads_.empty()) break;
      t = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    if (t.joinable()) t.join();
  }
}

void Server::accept_loop() {
  for (;;) {
    LineConn conn = listener_->accept();
    if (!conn.valid()) return;  // listener closed: shutdown
    // Slow-loris defense: a peer stalled mid-line (or not draining results)
    // is cut off; a quietly idle connection is left alone.
    conn.set_timeouts(options_.read_timeout_ms, options_.write_timeout_ms,
                      LineConn::TimeoutMode::MidLine);
    auto client = std::make_shared<Client>(std::move(conn));
    {
      const std::lock_guard<std::mutex> lock(clients_mutex_);
      clients_.push_back(client);
    }
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    conn_threads_.emplace_back([this, client] { handle_connection(std::move(client)); });
  }
}

void Server::worker_loop() {
  Job job;
  while (queue_.pop(job)) {
    run_job(job);
    job = Job{};  // drop the client reference between jobs
  }
}

void Server::handle_connection(std::shared_ptr<Client> client) {
  std::string line;
  try {
    while (client->conn.read_line(line, options_.max_frame)) {
      if (line.empty()) continue;
      handle_line(client, line);
    }
  } catch (const std::exception&) {
    // Oversized line or transport error: drop the connection.  Jobs this
    // client already had admitted still run; their sends just fail quietly.
  }
  // Half-close only: the fd itself is released when the last job holding
  // this Client drops its reference, so an in-flight worker can never race
  // a close()d-and-reused descriptor.
  {
    const std::lock_guard<std::mutex> lock(client->write_mutex);
    if (client->conn.valid()) ::shutdown(client->conn.fd(), SHUT_RDWR);
  }
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  std::erase(clients_, client);
}

void Server::handle_line(const std::shared_ptr<Client>& client, const std::string& line) {
  JobRequest request;
  try {
    request = parse_request(line);
  } catch (const Error& e) {
    Json error = Json::object();
    error.set("type", "error");
    error.set("error", std::string(e.what()));
    error.set("error_code", e.code_name());
    client->send(error);
    return;
  }

  if (request.op == "ping") {
    Json pong = Json::object();
    pong.set("type", "pong");
    client->send(pong);
    return;
  }
  if (request.op == "stats") {
    client->send(stats_json());
    return;
  }
  if (request.op == "flush") {
    traces_.clear();
    platforms_.clear();
    calibrations_.clear();
    results_.clear();
    {
      const std::lock_guard<std::mutex> lock(text_keys_mutex_);
      text_keys_.clear();
    }
    Json ok = Json::object();
    ok.set("type", "ok");
    ok.set("op", "flush");
    client->send(ok);
    return;
  }
  if (request.op == "shutdown") {
    Json ok = Json::object();
    ok.set("type", "ok");
    ok.set("op", "shutdown");
    client->send(ok);
    shutdown();
    return;
  }

  // predict: admit or reject.
  request.id = next_job_id_.fetch_add(1);
  const std::uint64_t id = request.id;
  Job job{std::move(request), client, std::chrono::steady_clock::now()};
  if (job.request.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = job.admitted + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          job.request.deadline_ms));
  }
  if (!queue_.try_push(std::move(job))) {
    ++jobs_rejected_;
    client->send(make_rejected(id, options_.retry_after_ms, queue_.size(), queue_.capacity()));
    return;
  }
  ++jobs_admitted_;
  // Note: a fast worker may stream "started" before this "accepted" lands;
  // per-job ordering is only guaranteed within the worker's own stream
  // (started -> scenario... -> done|failed).  Clients key on "type".
  client->send(make_accepted(id, queue_.size(), queue_.capacity()));
}

bool Server::replay_completed(const Job& job) {
  if (job.request.idem_key.empty()) return false;
  const std::uint64_t key =
      hash_bytes(binio::mix64(binio::kHashSeed, 'R'), job.request.idem_key);
  std::shared_ptr<const CompletedJob> completed;
  if (!results_.get(key, completed)) return false;
  // Bit-identical replay of the stored stream, re-stamped with the new job
  // id (the numbers were rendered %.17g once and are copied verbatim).
  ++idempotent_replays_;
  Json started = completed->started;
  started.set("job", job.request.id);
  started.set("idempotent", true);
  job.client->send(started);
  for (const Json& scenario : completed->scenarios) {
    Json line = scenario;
    line.set("job", job.request.id);
    job.client->send(line);
  }
  Json done = completed->done;
  done.set("job", job.request.id);
  done.set("idempotent", true);
  job.client->send(done);
  ++jobs_completed_;
  return true;
}

void Server::run_job(Job& job) {
  const JobRequest& request = job.request;
  const double queue_wait = seconds_since(job.admitted);

  // Deadline already passed while the job sat in the queue: answer cheaply
  // and definitely instead of burning a worker on a stale request.
  if (job.has_deadline && std::chrono::steady_clock::now() >= job.deadline) {
    ++jobs_expired_;
    ++jobs_failed_;
    Json failed = make_failed(request.id, "deadline expired before the job started",
                              ErrorCode::Cancelled);
    failed.set("expired", true);
    job.client->send(failed);
    return;
  }

  // Idempotent re-submit of a completed job: serve the cached stream.
  if (replay_completed(job)) return;

  try {
    // --- trace: content-keyed, decode-once ----------------------------------
    bool trace_loaded = false;
    bool degraded = false;
    const auto t_trace = std::chrono::steady_clock::now();
    const auto trace_cost = [](const std::shared_ptr<const titio::SharedTrace>& t) {
      return t->total_actions() * sizeof(tit::Action) + 4096;
    };
    std::uint64_t trace_key = 0;
    if (titio::is_binary_trace(request.trace)) {
      // Cheap fingerprint from the file's stored frame CRCs — no decode, and
      // an edited file naturally misses the old entry.
      titio::Reader reader(request.trace, {});
      trace_key = reader.content_hash();
    } else {
      const std::lock_guard<std::mutex> lock(text_keys_mutex_);
      if (auto it = text_keys_.find(request.trace); it != text_keys_.end()) {
        trace_key = it->second;
      }
    }
    std::shared_ptr<const titio::SharedTrace> trace;
    try {
      if (trace_key == 0) {
        // First sight of a text manifest: load to learn its content hash.
        auto loaded = std::make_shared<const titio::SharedTrace>(
            titio::SharedTrace::load(request.trace, {}, request.nprocs));
        trace_loaded = true;
        trace_key = loaded->content_hash();
        {
          const std::lock_guard<std::mutex> lock(text_keys_mutex_);
          text_keys_[request.trace] = trace_key;
        }
        trace = traces_.get_or_load(trace_key, [&] { return loaded; }, trace_cost);
      } else {
        trace = traces_.get_or_load(
            trace_key,
            [&] {
              trace_loaded = true;
              return std::make_shared<const titio::SharedTrace>(
                  titio::SharedTrace::load(request.trace, {}, request.nprocs));
            },
            trace_cost);
      }
    } catch (const std::bad_alloc&) {
      // Memory pressure on the cache path: shed to cold-path replay instead
      // of failing the job.  Nothing is retained, the prediction itself is
      // unaffected — "degraded" here means "paid the decode again", the
      // service-layer mirror of ReplayResult::degraded.
      degraded = true;
      trace_loaded = true;
      trace = std::make_shared<const titio::SharedTrace>(
          titio::SharedTrace::load(request.trace, {}, request.nprocs));
      if (trace_key == 0) trace_key = trace->content_hash();
    }
    if (degraded) ++jobs_degraded_;
    const double decode_seconds = seconds_since(t_trace);

    // --- platform: keyed by file bytes --------------------------------------
    std::shared_ptr<const platform::Platform> platform;
    std::uint64_t platform_key = 0;
    if (request.platform.empty()) {
      // Default: the tools' default cluster at 1e9 instr/s, keyed by rank
      // count.
      platform_key = binio::mix64(binio::mix64(binio::kHashSeed, 'D'),
                                  static_cast<std::uint64_t>(trace->nprocs()));
      const int nprocs = trace->nprocs();
      platform = platforms_.get_or_load(
          platform_key,
          [&] {
            return std::make_shared<const platform::Platform>(
                platform::default_cluster(nprocs, 1e9));
          },
          [&](const std::shared_ptr<const platform::Platform>&) {
            return 1024 + 128 * static_cast<std::uint64_t>(nprocs);
          });
    } else {
      const std::string bytes = read_file(request.platform);
      platform_key = hash_bytes(binio::mix64(binio::kHashSeed, 'P'), bytes);
      platform = platforms_.get_or_load(
          platform_key,
          [&] {
            // Parse the bytes that were hashed: re-opening the file could
            // cache a rewritten file under the old content's key.
            return std::make_shared<const platform::Platform>(
                platform::parse_platform_string(bytes));
          },
          [&](const std::shared_ptr<const platform::Platform>&) {
            return 1024 + 4 * bytes.size();
          });
    }
    // A platform without hosts fails the job, not each scenario: calibration
    // and every replay would place ranks on it.
    (void)platform::place_ranks(*platform, trace->nprocs());

    // --- perturbation: a platform family sampled at the seed grid -----------
    // Instances are not cached (each is one Platform copy; mc_expand samples
    // them below).  A perturbed job calibrates on its first seed's instance,
    // so the calibration key folds the spec hash and that seed
    // (SvcPerturb.TwoSeedsNeverShareCacheEntries).
    const bool perturbed = !request.perturb.empty();
    tir::platform::PlatformModel model;
    core::McOptions mc_options;
    mc_options.replicates = std::max(1, request.mc_replicates);
    std::uint64_t first_seed = 0;
    std::uint64_t calibration_platform_key = platform_key;
    if (perturbed) {
      model = tir::platform::PlatformModel(
          platform, tir::platform::PerturbationSpec::parse(request.perturb));
      first_seed = core::mc_seed_grid(model.spec(), mc_options).front();
      calibration_platform_key =
          binio::mix64(binio::mix64(platform_key, model.spec().hash()), first_seed);
    }

    // --- calibration: keyed by the platform + canonical request -------------
    double calibrated_rate = 0.0;
    bool calibration_computed = false;
    double calibrate_seconds = 0.0;
    if (request.calibrate) {
      const auto t_calibrate = std::chrono::steady_clock::now();
      const std::uint64_t calibration_key =
          hash_bytes(binio::mix64(calibration_platform_key, 'C'),
                     core::calibration_cache_key(request.calibration));
      calibrated_rate = calibrations_.get_or_load(
          calibration_key,
          [&] {
            calibration_computed = true;
            return core::calibrate_rate(perturbed ? *model.instantiate(first_seed) : *platform,
                                        request.calibration);
          },
          [](const double&) { return 8; });
      calibrate_seconds = seconds_since(t_calibrate);
    }

    Json started = Json::object();
    started.set("type", "started");
    started.set("job", request.id);
    started.set("trace_hash", hash_hex(trace_key));
    started.set("trace_cache", trace_loaded ? "miss" : "hit");
    started.set("queue_wait_seconds", queue_wait);
    started.set("decode_seconds", decode_seconds);
    if (degraded) started.set("degraded", true);
    if (request.calibrate) {
      started.set("calibration_cache", calibration_computed ? "miss" : "hit");
      started.set("calibrate_seconds", calibrate_seconds);
      started.set("calibrated_rate", calibrated_rate);
    }
    job.client->send(started);

    // --- scenarios -----------------------------------------------------------
    // One McScenario per ScenarioSpec; a perturbed job expands them through
    // core::mc_expand (its cells own their sampled platforms), an
    // unperturbed one replays each spec once on the base platform.
    std::vector<core::McScenario> specs;
    for (const ScenarioSpec& spec : request.scenarios) {
      core::McScenario sc;
      sc.model = model;
      sc.config.rates = spec.rates.empty() ? std::vector<double>{calibrated_rate} : spec.rates;
      sc.config.sharing = spec.contention ? sim::Sharing::MaxMin : sim::Sharing::Uncontended;
      sc.config.watchdog_seconds = spec.watchdog_seconds;
      sc.backend = spec.backend;
      sc.label = spec.label;
      specs.push_back(std::move(sc));
    }
    core::McGrid grid;
    if (perturbed) {
      grid = core::mc_expand(specs, trace->nprocs(), mc_options);
    } else {
      for (const core::McScenario& sc : specs) {
        grid.cells.push_back({platform, sc.config, sc.backend, sc.label});
      }
    }
    std::vector<core::Scenario>& scenarios = grid.cells;
    std::vector<std::unique_ptr<obs::TimelineSink>> sinks;
    if (request.metrics) {
      for (core::Scenario& sc : scenarios) {
        sinks.push_back(std::make_unique<obs::TimelineSink>());
        sc.config.sink = sinks.back().get();
      }
    }

    // Per-job deadline: polled between scenarios; an expired job cancels its
    // remaining scenarios (ErrorCode::Cancelled outcomes) instead of
    // running a prediction nobody is waiting for anymore.
    const core::CancelToken cancel =
        job.has_deadline ? core::CancelToken(job.deadline) : core::CancelToken();

    std::vector<Json> scenario_lines;  // retained for the idempotency cache
    scenario_lines.reserve(scenarios.size());
    core::SweepOptions sweep_options;
    sweep_options.jobs = 1;  // the service parallelizes across jobs, not inside
    sweep_options.cancel = job.has_deadline ? &cancel : nullptr;
    sweep_options.on_scenario_done = [&](std::size_t index,
                                         const core::ScenarioOutcome& outcome) {
      ++(outcome.ok ? scenarios_ok_ : scenarios_failed_);
      scenario_lines.push_back(make_scenario(request.id, index, outcome));
      job.client->send(scenario_lines.back());
    };
    const auto t_replay = std::chrono::steady_clock::now();
    const std::vector<core::ScenarioOutcome> outcomes =
        core::sweep(*trace, scenarios, sweep_options);
    const double replay_seconds = seconds_since(t_replay);

    bool expired = false;
    for (const core::ScenarioOutcome& o : outcomes) {
      if (!o.ok && o.error_code == ErrorCode::Cancelled) expired = true;
    }
    if (expired) ++jobs_expired_;

    Json done = Json::object();
    done.set("type", "done");
    done.set("job", request.id);
    std::size_t ok = 0;
    for (const core::ScenarioOutcome& o : outcomes) ok += o.ok ? 1 : 0;
    done.set("scenarios", outcomes.size());
    done.set("scenarios_ok", ok);
    if (expired) done.set("expired", true);
    if (degraded) done.set("degraded", true);
    done.set("trace_cache", trace_loaded ? "miss" : "hit");
    done.set("queue_wait_seconds", queue_wait);
    done.set("decode_seconds", decode_seconds);
    done.set("calibrate_seconds", calibrate_seconds);
    done.set("replay_seconds", replay_seconds);

    if (perturbed) {
      // Aggregate quantiles per original ScenarioSpec.  Seeds are 64-bit
      // draws: rendered as decimal strings, not JSON numbers, so they
      // survive double round-tripping bit-exactly.
      const core::McReport report = core::mc_fold(specs, grid, outcomes);
      Json mc = Json::object();
      mc.set("spec", model.spec().canonical());
      Json seeds_json = Json::array();
      for (const std::uint64_t seed : grid.seeds.front()) {
        seeds_json.push_back(std::to_string(seed));
      }
      mc.set("seeds", std::move(seeds_json));
      Json groups = Json::array();
      for (const core::McScenarioReport& sr : report.scenarios) {
        const obs::DistributionSummary& d = sr.simulated_time;
        Json g = Json::object();
        g.set("label", sr.label);
        g.set("n", d.n);
        const std::pair<const char*, double> fields[] = {
            {"mean", d.mean}, {"stddev", d.stddev}, {"min", d.min}, {"max", d.max},
            {"p5", d.p5},     {"p25", d.p25},       {"p50", d.p50}, {"p75", d.p75},
            {"p95", d.p95},   {"ci95_lo", d.ci95_lo}, {"ci95_hi", d.ci95_hi}};
        for (const auto& [name, value] : fields) g.set(name, value);
        groups.push_back(std::move(g));
      }
      mc.set("scenarios", std::move(groups));
      done.set("mc", std::move(mc));
    }

    if (request.metrics) {
      obs::SweepAggregator aggregator;
      Json reports = Json::array();
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok) continue;
        const obs::MetricsReport report =
            obs::aggregate(*sinks[i], 65536.0, scenarios[i].platform.get());
        aggregator.record(i, outcomes[i].label, report,
                          {queue_wait, outcomes[i].result.wall_clock_seconds});
        Json entry = Json::object();
        entry.set("label", outcomes[i].label);
        entry.set("report", Json::parse(obs::to_json(report)));
        reports.push_back(std::move(entry));
      }
      const obs::SweepAggregator::Summary summary = aggregator.summary();
      Json s = Json::object();
      s.set("scenarios", summary.scenarios);
      s.set("total_simulated_time", summary.total_simulated_time);
      s.set("total_compute", summary.total_compute);
      s.set("total_comm", summary.total_comm);
      s.set("total_wait", summary.total_wait);
      s.set("total_queue_wait", summary.total_queue_wait);
      s.set("total_replay_wall", summary.total_replay_wall);
      s.set("max_queue_wait", summary.max_queue_wait);
      done.set("metrics", std::move(reports));
      done.set("summary", std::move(s));
    }
    job.client->send(done);
    ++jobs_completed_;

    // Retain the stream for idempotent re-submits — but only clean runs:
    // expired jobs must re-run with a fresh budget, degraded ones should
    // retry the cached path, and metrics streams are too big to be worth it.
    if (!request.idem_key.empty() && !expired && !degraded && !request.metrics) {
      auto completed = std::make_shared<CompletedJob>();
      completed->started = started;
      completed->scenarios = std::move(scenario_lines);
      completed->done = done;
      std::uint64_t cost = 512 + started.dump().size() + done.dump().size();
      for (const Json& line : completed->scenarios) cost += line.dump().size();
      results_.put(hash_bytes(binio::mix64(binio::kHashSeed, 'R'), request.idem_key),
                   std::shared_ptr<const CompletedJob>(std::move(completed)), cost);
    }
  } catch (const Error& e) {
    ++jobs_failed_;
    job.client->send(make_failed(request.id, e.what(), e.code()));
  } catch (const std::exception& e) {
    ++jobs_failed_;
    job.client->send(make_failed(request.id, e.what(), ErrorCode::Internal));
  }
}

Json Server::stats_json() const {
  Json s = Json::object();
  s.set("type", "stats");
  Json queue = Json::object();
  queue.set("depth", queue_.size());
  queue.set("capacity", queue_.capacity());
  queue.set("admitted", jobs_admitted_.load());
  queue.set("rejected", jobs_rejected_.load());
  s.set("queue", std::move(queue));
  Json jobs = Json::object();
  jobs.set("completed", jobs_completed_.load());
  jobs.set("failed", jobs_failed_.load());
  jobs.set("expired", jobs_expired_.load());
  jobs.set("degraded", jobs_degraded_.load());
  jobs.set("idempotent_replays", idempotent_replays_.load());
  jobs.set("scenarios_ok", scenarios_ok_.load());
  jobs.set("scenarios_failed", scenarios_failed_.load());
  s.set("jobs", std::move(jobs));
  s.set("workers", worker_count_);
  s.set("traces", cache_stats_json(traces_.stats()));
  s.set("platforms", cache_stats_json(platforms_.stats()));
  s.set("calibrations", cache_stats_json(calibrations_.stats()));
  s.set("results", cache_stats_json(results_.stats()));
  return s;
}

}  // namespace tir::svc
