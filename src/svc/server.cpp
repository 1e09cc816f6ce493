#include "svc/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "base/binio.hpp"
#include "core/calibration.hpp"
#include "core/job.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "platform/parse.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"

namespace tir::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string read_file(const std::string& path, const std::string& kind = "") {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + kind + path);
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

/// Content key of a text manifest: its bytes, the bytes of every file it
/// lists and the requested rank count.  Read errors are load_trace's.
std::uint64_t text_trace_key(const std::string& manifest, int nprocs) {
  const std::vector<std::string> files = tit::read_manifest(manifest);
  std::uint64_t h = hash_bytes(binio::mix64(binio::kHashSeed, 'M'), read_file(manifest));
  const std::filesystem::path dir = std::filesystem::path(manifest).parent_path();
  for (const std::string& file : files) {
    h = hash_bytes(h, read_file((dir / file).string(), "trace file: "));
  }
  return binio::mix64(h, static_cast<std::uint64_t>(nprocs));
}

std::string hash_hex(std::uint64_t h) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

Json cache_stats_json(const CacheStats& s) {
  return Json::object({{"hits", s.hits},
                       {"misses", s.misses},
                       {"evictions", s.evictions},
                       {"uncacheable", s.uncacheable},
                       {"bytes", s.bytes},
                       {"peak_bytes", s.peak_bytes},
                       {"entries", s.entries},
                       {"capacity_bytes", s.capacity_bytes}});
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
    // Join the connection threads that ended since the last accept, so a
    // long-lived daemon holds one thread (and stack) per open connection,
    // not one per connection it ever served.
    std::vector<std::thread> ended;
    {
      const std::lock_guard<std::mutex> lock(threads_mutex_);
      for (const std::thread::id id : ended_conns_) {
        const auto it = std::find_if(conn_threads_.begin(), conn_threads_.end(),
                                     [id](const std::thread& t) { return t.get_id() == id; });
        ended.push_back(std::move(*it));
        conn_threads_.erase(it);
      }
      ended_conns_.clear();
      conn_threads_.emplace_back([this, client] {
        handle_connection(std::move(client));
        const std::lock_guard<std::mutex> lock(threads_mutex_);
        ended_conns_.push_back(std::this_thread::get_id());
      });
    }
    for (std::thread& t : ended) t.join();
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
    client->send(Json::object(
        {{"type", "error"}, {"error", e.what()}, {"error_code", e.code_name()}}));
    return;
  }

  if (request.op == "ping") {
    client->send(Json::object({{"type", "pong"}}));
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
    client->send(Json::object({{"type", "ok"}, {"op", "flush"}}));
    return;
  }
  if (request.op == "shutdown") {
    client->send(Json::object({{"type", "ok"}, {"op", "shutdown"}}));
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

  try {
    // --- fingerprints: the trace and platform contents, read, not decoded ---
    // A TITB file is fingerprinted from its stored frame CRCs; a text
    // manifest by its bytes, its rank files' bytes and the rank count.  An
    // edited file misses every entry of its old content.
    const auto t_trace = std::chrono::steady_clock::now();
    const std::uint64_t trace_key = titio::is_binary_trace(request.trace)
                                        ? titio::Reader(request.trace, {}).content_hash()
                                        : text_trace_key(request.trace, request.nprocs);
    std::string platform_bytes;
    if (!request.platform.empty()) platform_bytes = read_file(request.platform);
    // The default platform is keyed by rank count, folded in after decode.
    std::uint64_t platform_key =
        request.platform.empty() ? binio::mix64(binio::kHashSeed, 'D')
                                 : hash_bytes(binio::mix64(binio::kHashSeed, 'P'), platform_bytes);

    // --- trace: content-keyed, kept packed -----------------------------------
    // A miss decodes the file, caches its packed form and replays from the
    // decoded copy in hand; a hit unpacks only when the memo below cannot
    // answer the job.
    bool trace_loaded = false;
    bool degraded = false;
    std::optional<titio::SharedTrace> trace;  // decoded, shared by the job's scenarios
    const auto load_trace = [&] {
      trace_loaded = true;
      trace = titio::SharedTrace::load(request.trace, {}, request.nprocs);
    };
    std::shared_ptr<const titio::PackedTrace> packed;
    try {
      packed = traces_.get_or_load(
          trace_key,
          [&] {
            load_trace();
            return std::make_shared<const titio::PackedTrace>(*trace);
          },
          [](const auto& p) { return p->packed_bytes() + 4096; });
    } catch (const std::bad_alloc&) {
      // Memory pressure on the cache path: shed to cold-path replay instead
      // of failing the job.  Nothing is retained, the prediction itself is
      // unaffected — "degraded" here means "paid the decode again", the
      // service-layer mirror of ReplayResult::degraded.
      degraded = true;
      if (!trace) load_trace();
    }
    if (degraded) ++jobs_degraded_;
    double decode_seconds = seconds_since(t_trace);
    const int nprocs = trace ? trace->nprocs() : packed->nprocs();
    const std::uint64_t trace_hash = trace ? trace->content_hash() : packed->content_hash();

    // --- platform: keyed by file bytes --------------------------------------
    std::shared_ptr<const platform::Platform> platform;
    if (request.platform.empty()) {
      // Default: the tools' default cluster at 1e9 instr/s.
      platform_key = binio::mix64(platform_key, static_cast<std::uint64_t>(nprocs));
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
      platform = platforms_.get_or_load(
          platform_key,
          [&] {
            // Parse the bytes that were hashed: re-opening the file could
            // cache a rewritten file under the old content's key.
            return std::make_shared<const platform::Platform>(
                platform::parse_platform_string(platform_bytes));
          },
          [&](const std::shared_ptr<const platform::Platform>&) {
            return 1024 + 4 * platform_bytes.size();
          });
    }
    // A platform without hosts fails the job, not each scenario: calibration
    // and every replay would place ranks on it.
    (void)platform::place_ranks(*platform, nprocs);

    // --- perturbation: a platform family sampled at the seed grid -----------
    // A perturbed job calibrates on its first seed's instance, so the
    // calibration key folds the spec hash and that seed
    // (SvcPerturb.TwoSeedsNeverShareCacheEntries).
    std::optional<tir::platform::PerturbationSpec> perturb;
    core::McOptions mc_options;
    mc_options.replicates = std::max(1, request.mc_replicates);
    std::uint64_t first_seed = 0;
    std::uint64_t calibration_platform_key = platform_key;
    if (!request.perturb.empty()) {
      perturb = tir::platform::PerturbationSpec::parse(request.perturb);
      first_seed = core::mc_seed_grid(*perturb, mc_options).front();
      calibration_platform_key =
          binio::mix64(binio::mix64(platform_key, perturb->hash()), first_seed);
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
            return core::calibrate_rate(
                perturb ? *tir::platform::PlatformModel(platform, *perturb).instantiate(first_seed)
                        : *platform,
                request.calibration);
          },
          [](const double&) { return 8; });
      calibrate_seconds = seconds_since(t_calibrate);
    }

    // --- memo: the answer to the same question over the same contents ------
    // Consulted after the lookups above, so started reports their truth.
    // The idem key only flags the answer: the memo keys on content.
    const std::uint64_t result_key = binio::mix64(
        binio::mix64(hash_bytes(binio::mix64(binio::kHashSeed, 'R'), content_key(request)),
                     trace_key),
        platform_key);
    std::shared_ptr<const CompletedJob> memo;
    const bool memo_hit = !request.metrics && results_.get(result_key, memo);
    const bool idempotent = memo_hit && !request.idem_key.empty();
    if (idempotent) ++idempotent_replays_;
    if (!memo_hit && !trace) {
      const auto t_unpack = std::chrono::steady_clock::now();
      trace = packed->unpack();
      decode_seconds += seconds_since(t_unpack);
    }

    Json started = Json::object({{"type", "started"},
                                 {"job", request.id},
                                 {"trace_hash", hash_hex(trace_hash)},
                                 {"trace_cache", trace_loaded ? "miss" : "hit"},
                                 {"queue_wait_seconds", queue_wait},
                                 {"decode_seconds", decode_seconds}});
    if (degraded) started.set("degraded", true);
    if (request.calibrate) {
      started.set("calibration_cache", calibration_computed ? "miss" : "hit");
      started.set("calibrate_seconds", calibrate_seconds);
      started.set("calibrated_rate", calibrated_rate);
    }
    if (idempotent) started.set("idempotent", true);

    const auto make_done = [&](std::size_t scenarios, std::size_t ok, bool expired,
                               double replay_seconds, const Json& mc) {
      Json done = Json::object({{"type", "done"},
                                {"job", request.id},
                                {"scenarios", scenarios},
                                {"scenarios_ok", ok}});
      if (expired) done.set("expired", true);
      if (degraded) done.set("degraded", true);
      done.set("trace_cache", trace_loaded ? "miss" : "hit");
      done.set("queue_wait_seconds", queue_wait);
      done.set("decode_seconds", decode_seconds);
      done.set("calibrate_seconds", calibrate_seconds);
      done.set("replay_seconds", replay_seconds);
      if (!mc.is_null()) done.set("mc", mc);
      return done;
    };

    if (memo_hit) {
      // The whole answer in one write: a repeat costs the client one wakeup,
      // not one per line (the lines of a replayed job stream as they come).
      std::string lines = started.dump();
      for (const Json& scenario : memo->scenarios) {
        Json line = scenario;
        line.set("job", request.id);
        lines += '\n' + line.dump();
      }
      Json done = make_done(memo->scenarios.size(), memo->scenarios_ok, false, 0.0, memo->mc);
      if (idempotent) done.set("idempotent", true);
      job.client->send_lines(lines + '\n' + done.dump());
      ++jobs_completed_;
      return;
    }
    job.client->send(started);

    // --- scenarios -----------------------------------------------------------
    core::JobPlan plan =
        core::plan_job(request.scenarios, platform, nprocs, calibrated_rate, perturb, mc_options);
    std::vector<core::Scenario>& scenarios = plan.grid.cells;
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

    std::vector<Json> scenario_lines;  // retained for the memo
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

    std::size_t ok = 0;
    for (const core::ScenarioOutcome& o : outcomes) ok += o.ok ? 1 : 0;

    Json mc;
    if (perturb) {
      // Aggregate quantiles per original ScenarioSpec.  Seeds are 64-bit
      // draws, sent as decimal strings so a client that reads every JSON
      // number as a double still gets them bit-exactly.
      const core::McReport report = core::mc_fold(plan.rows, plan.grid, outcomes);
      mc = Json::object({{"spec", perturb->canonical()}});
      Json seeds_json = Json::array();
      for (const std::uint64_t seed : plan.grid.seeds.front()) {
        seeds_json.push_back(std::to_string(seed));
      }
      mc.set("seeds", std::move(seeds_json));
      Json groups = Json::array();
      for (const core::McScenarioReport& sr : report.scenarios) {
        Json g = Json::object({{"label", sr.label}});
        core::add_summary_fields(g, sr.simulated_time);
        groups.push_back(std::move(g));
      }
      mc.set("scenarios", std::move(groups));
    }
    Json done = make_done(outcomes.size(), ok, expired, replay_seconds, mc);

    if (request.metrics) {
      // One report per ok scenario, and their totals summed in scenario order.
      Json reports = Json::array();
      std::size_t reported = 0;
      double simulated = 0.0, compute = 0.0, comm = 0.0, wait = 0.0;
      double total_queue_wait = 0.0, replay_wall = 0.0, max_queue_wait = 0.0;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok) continue;
        const obs::MetricsReport report =
            obs::aggregate(*sinks[i], 65536.0, scenarios[i].platform.get());
        ++reported;
        simulated += report.simulated_time;
        compute += report.total_compute;
        comm += report.total_comm;
        wait += report.total_wait;
        total_queue_wait += queue_wait;
        replay_wall += outcomes[i].result.wall_clock_seconds;
        max_queue_wait = std::max(max_queue_wait, queue_wait);
        Json entry = Json::object({{"label", outcomes[i].label}});
        entry.set("report", obs::to_json(report));
        reports.push_back(std::move(entry));
      }
      done.set("metrics", std::move(reports));
      done.set("summary", Json::object({{"scenarios", reported},
                                        {"total_simulated_time", simulated},
                                        {"total_compute", compute},
                                        {"total_comm", comm},
                                        {"total_wait", wait},
                                        {"total_queue_wait", total_queue_wait},
                                        {"total_replay_wall", replay_wall},
                                        {"max_queue_wait", max_queue_wait}}));
    }
    // Memoize before done goes out, so a client that saw done and asks
    // again is answered from the memo.  Only answers that are a pure
    // function of the request are kept: not a metrics stream (too big to
    // be worth it), not a degraded job (it should retry the cached path),
    // and not a scenario the wall clock ended — a watchdog, or the
    // cancellation that marks an expired job.
    const bool clock_ended = std::any_of(outcomes.begin(), outcomes.end(), [](const auto& o) {
      return !o.ok && (o.error_code == ErrorCode::Watchdog || o.error_code == ErrorCode::Cancelled);
    });
    if (!request.metrics && !degraded && !clock_ended) {
      auto completed = std::make_shared<CompletedJob>();
      completed->scenarios = std::move(scenario_lines);
      completed->scenarios_ok = ok;
      completed->mc = std::move(mc);
      std::uint64_t cost = 512 + completed->mc.dump().size();
      for (const Json& line : completed->scenarios) cost += line.dump().size();
      results_.put(result_key, std::shared_ptr<const CompletedJob>(std::move(completed)), cost);
    }
    job.client->send(done);
    ++jobs_completed_;
  } catch (const Error& e) {
    ++jobs_failed_;
    job.client->send(make_failed(request.id, e.what(), e.code()));
  } catch (const std::exception& e) {
    ++jobs_failed_;
    job.client->send(make_failed(request.id, e.what(), ErrorCode::Internal));
  }
}

Json Server::stats_json() const {
  return Json::object(
      {{"type", "stats"},
       {"queue", Json::object({{"depth", queue_.size()},
                               {"capacity", queue_.capacity()},
                               {"admitted", jobs_admitted_.load()},
                               {"rejected", jobs_rejected_.load()}})},
       {"jobs", Json::object({{"completed", jobs_completed_.load()},
                              {"failed", jobs_failed_.load()},
                              {"expired", jobs_expired_.load()},
                              {"degraded", jobs_degraded_.load()},
                              {"idempotent_replays", idempotent_replays_.load()},
                              {"scenarios_ok", scenarios_ok_.load()},
                              {"scenarios_failed", scenarios_failed_.load()}})},
       {"workers", worker_count_},
       {"traces", cache_stats_json(traces_.stats())},
       {"platforms", cache_stats_json(platforms_.stats())},
       {"calibrations", cache_stats_json(calibrations_.stats())},
       {"results", cache_stats_json(results_.stats())}});
}

}  // namespace tir::svc
