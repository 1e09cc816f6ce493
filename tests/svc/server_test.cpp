// Server end-to-end over real sockets: ops, the cold->hit cache path with
// bit-identical results, per-job failure isolation, queue backpressure, and
// the drain-on-shutdown contract, and which file contents the caches key on.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "platform/clusters.hpp"
#include "support/golden.hpp"
#include "support/temp_dir.hpp"
#include "support/wire.hpp"
#include "svc/client.hpp"
#include "svc/net.hpp"
#include "tit/trace.hpp"
#include "titio/writer.hpp"

namespace tir::svc {
namespace {

namespace fs = std::filesystem;

tit::Trace two_rank_trace() {
  return tit::parse_trace_string(
      "p0 compute 1e9\n"
      "p0 send p1 1024\n"
      "p1 recv p0 1024\n"
      "p1 compute 2e9\n",
      2);
}

class SvcServer : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("tird_test");
    trace_path_ = (dir_ / "t.titb").string();
    titio::write_binary_trace(two_rank_trace(), trace_path_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string endpoint(const char* name) const {
    return "unix:" + (dir_ / name).string();
  }

  JobRequest simple_job(double rate = 1e9) const {
    JobRequest request;
    request.op = "predict";
    request.trace = trace_path_;
    ScenarioSpec spec;
    spec.label = "s";
    spec.rates = {rate};
    request.scenarios.push_back(spec);
    return request;
  }

  /// A job whose service time is dominated by a deterministic calibration —
  /// slow enough to hold a worker while the test races admissions against
  /// it.  C-8 spills L2, so cache-aware calibration simulates the C-4 run;
  /// at 50 iterations that held the worker for 115-155 ms per job in a
  /// RelWithDebInfo build on a 4-vCPU Xeon VM, well past the 50 ms deadline
  /// of DeadlineExpiredInQueueFailsCancelled.
  JobRequest slow_job() const {
    JobRequest request = simple_job();
    request.scenarios[0].rates.clear();
    request.calibrate = true;
    request.calibration.procedure = "cache-aware";
    request.calibration.iterations = 50;
    request.calibration.truth = platform::bordereau_truth();
    request.calibration.instance_class = 'C';
    request.calibration.instance_nprocs = 8;
    return request;
  }

  /// The admission response (accepted or rejected) to a request written on
  /// a raw connection.  Jobs sent on different connections may be admitted
  /// in either order; a test that needs an order waits for this first.
  static Json read_admission(LineConn& conn) {
    std::string line;
    while (conn.read_line(line)) {
      const Json response = Json::parse(line);
      const std::string type = response.str_or("type", "");
      if (type == "accepted" || type == "rejected") return response;
    }
    return Json();
  }

  fs::path dir_;
  std::string trace_path_;
};

TEST_F(SvcServer, PingStatsFlushOverUnixSocket) {
  ServerOptions options;
  options.endpoint = endpoint("ops.sock");
  options.workers = 1;
  Server server(options);
  server.start();

  Client client(server.endpoint());
  EXPECT_TRUE(client.ping());
  const Json stats = client.stats();
  EXPECT_EQ(stats.str_or("type", ""), "stats");
  EXPECT_EQ(stats.get("queue").num_or("capacity", 0), 64.0);
  EXPECT_EQ(stats.get("workers").as_number(), 1.0);
  EXPECT_TRUE(client.flush());
}

TEST_F(SvcServer, TcpPortZeroResolvesAndServes) {
  ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.workers = 1;
  Server server(options);
  server.start();
  EXPECT_NE(server.endpoint(), "tcp:127.0.0.1:0");  // kernel-assigned port
  Client client(server.endpoint());
  EXPECT_TRUE(client.ping());
}

// A port that is not a plain decimal in 0-65535 is a config error; it must
// never fall back to a kernel-assigned port the way ":0" asks for.
TEST(SvcEndpoint, MalformedTcpPortIsAConfigError) {
  for (const char* endpoint : {"tcp:127.0.0.1:http", "tcp:127.0.0.1:", "tcp:127.0.0.1:0x1F",
                               "tcp:127.0.0.1:99999999999", "tcp:127.0.0.1:65536",
                               "tcp:127.0.0.1:-1", "tcp:127.0.0.1: 80"}) {
    EXPECT_THROW(Listener{endpoint}, ConfigError) << endpoint;
  }
  Listener any("tcp:127.0.0.1:0");
  EXPECT_NE(any.endpoint(), "tcp:127.0.0.1:0");
}

TEST_F(SvcServer, ColdThenCachedHitIsBitIdentical) {
  ServerOptions options;
  options.endpoint = endpoint("cache.sock");
  options.workers = 1;
  Server server(options);
  server.start();

  Client client(server.endpoint());
  const JobResult cold = client.submit(simple_job());
  ASSERT_TRUE(cold.done) << cold.error;
  EXPECT_EQ(cold.started.str_or("trace_cache", ""), "miss");
  ASSERT_EQ(cold.scenarios.size(), 1u);
  EXPECT_TRUE(cold.scenarios[0].bool_or("ok", false));

  const JobResult hit = client.submit(simple_job());
  ASSERT_TRUE(hit.done) << hit.error;
  EXPECT_EQ(hit.started.str_or("trace_cache", ""), "hit");
  // The prediction crossed the wire as %.17g JSON both times; the cached
  // path must reproduce the cold path bit for bit.
  EXPECT_EQ(hit.scenarios[0].num_or("simulated_time", -1),
            cold.scenarios[0].num_or("simulated_time", -2));
  EXPECT_EQ(hit.scenarios[0].num_or("actions_replayed", -1),
            cold.scenarios[0].num_or("actions_replayed", -2));

  // flush drops the entry: the next job decodes again.
  ASSERT_TRUE(client.flush());
  const JobResult refetched = client.submit(simple_job());
  ASSERT_TRUE(refetched.done);
  EXPECT_EQ(refetched.started.str_or("trace_cache", ""), "miss");

  const CacheStats stats = server.trace_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(SvcServer, JobFailuresAreIsolated) {
  ServerOptions options;
  options.endpoint = endpoint("fail.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  // Job-level failure: nonexistent trace -> "failed", connection survives.
  JobRequest missing = simple_job();
  missing.trace = (dir_ / "nope.titb").string();
  const JobResult failed = client.submit(missing);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.error.empty());

  // Scenario-level failure: a non-positive per-rank rate fails that
  // scenario with config while its sibling succeeds.
  JobRequest mixed = simple_job();
  ScenarioSpec bad;
  bad.label = "bad-rates";
  bad.rates = {1e9, -2e9};
  mixed.scenarios.push_back(bad);
  const JobResult outcome = client.submit(mixed);
  ASSERT_TRUE(outcome.done) << outcome.error;
  ASSERT_EQ(outcome.scenarios.size(), 2u);
  EXPECT_TRUE(outcome.scenarios[0].bool_or("ok", false));
  EXPECT_FALSE(outcome.scenarios[1].bool_or("ok", true));
  EXPECT_EQ(outcome.scenarios[1].str_or("error_code", ""),
            error_code_name(ErrorCode::Config));

  // And the daemon is still healthy.
  EXPECT_TRUE(client.ping());
}

// A platform file with a switch and no host used to kill the daemon with a
// division by zero; the job must fail with a typed error instead, and the
// server keep serving.
TEST_F(SvcServer, HostlessPlatformFailsTheJobNotTheServer) {
  ServerOptions options;
  options.endpoint = endpoint("hostless.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  const std::string platform_path = (dir_ / "hostless.txt").string();
  std::ofstream(platform_path) << "switch root\n";
  JobRequest request = simple_job();
  request.platform = platform_path;
  const JobResult result = client.submit(request);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.error_code, error_code_name(ErrorCode::Config)) << result.error;
  EXPECT_TRUE(client.ping());
}

// The wire bytes of unperturbed jobs, pinned (tests/svc/golden/
// plain_jobs.txt): every started, scenario and done line of a fixed job
// sequence on one worker, timing fields masked.  Covers a two-rate job, an
// MSG scenario with contention and a watchdog on a platform file, a
// calibrated job (computed, then cached), a job with one failing scenario,
// a metrics job and a text manifest (decoded, then cached).  Regenerate
// after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_svc --gtest_filter='SvcServer.PlainJobsGolden*'
TEST_F(SvcServer, PlainJobsGoldenStreamIsByteIdentical) {
  ServerOptions options;
  options.endpoint = endpoint("plain.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  JobRequest two_rates = simple_job();
  two_rates.scenarios.clear();
  for (const double rate : {1e9, 2e9}) {
    ScenarioSpec spec;
    spec.label = rate == 1e9 ? "slow" : "fast";
    spec.rates = {rate};
    two_rates.scenarios.push_back(spec);
  }

  const std::string platform_path = (dir_ / "plain.txt").string();
  std::ofstream(platform_path)
      << "cluster prefix=h nodes=2 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=50us\n";
  JobRequest msg = simple_job();
  msg.platform = platform_path;
  msg.scenarios[0].label = "msg-contended";
  msg.scenarios[0].backend = core::Backend::Msg;
  msg.scenarios[0].contention = true;
  msg.scenarios[0].watchdog_seconds = 30.0;

  JobRequest calibrated = simple_job();
  calibrated.scenarios[0].label = "calibrated";
  calibrated.scenarios[0].rates.clear();
  calibrated.calibrate = true;
  calibrated.calibration.procedure = "cache-aware";
  calibrated.calibration.iterations = 2;
  calibrated.calibration.truth = platform::bordereau_truth();
  calibrated.calibration.instance_class = 'A';
  calibrated.calibration.instance_nprocs = 2;

  JobRequest mixed = simple_job();
  ScenarioSpec bad;
  bad.label = "bad-rates";
  bad.rates = {1e9, -2e9};
  mixed.scenarios.push_back(bad);

  JobRequest metrics = simple_job();
  metrics.scenarios[0].contention = true;
  metrics.metrics = true;

  std::ofstream(dir_ / "r0.tit") << "p0 compute 1e9\np0 send p1 1024\n";
  std::ofstream(dir_ / "r1.tit") << "p1 recv p0 1024\np1 compute 3e9\n";
  std::ofstream(dir_ / "t.manifest") << "r0.tit\nr1.tit\n";
  JobRequest text = simple_job();
  text.trace = (dir_ / "t.manifest").string();

  std::string got;
  for (const JobRequest* request :
       {&two_rates, &msg, &calibrated, &calibrated, &mixed, &metrics, &text, &text}) {
    const JobResult result = client.submit(*request);
    ASSERT_TRUE(result.done) << result.error;
    got += test::without_timings(result.started) + "\n";
    for (const Json& line : result.scenarios) got += test::without_timings(line) + "\n";
    got += test::without_timings(result.epilogue) + "\n";
  }
  test::expect_matches_golden(std::string(TIR_SVC_GOLDEN_DIR) + "/plain_jobs.txt", got);
}

TEST_F(SvcServer, FullQueueRejectsWithRetryAfter) {
  ServerOptions options;
  options.endpoint = endpoint("bp.sock");
  options.workers = 1;
  options.queue_capacity = 1;
  options.cache_bytes = 0;  // keep the slow job slow on every submission
  options.retry_after_ms = 7;
  Server server(options);
  server.start();

  // Occupy the single worker with a slow job, fill the depth-1 queue with a
  // second, then watch the third bounce.  Raw connections: we must not
  // block on the first job's completion before submitting the others.
  LineConn first = dial(server.endpoint());
  LineConn second = dial(server.endpoint());
  LineConn third = dial(server.endpoint());

  ASSERT_TRUE(first.write_line(render_request(slow_job())));
  const Json a1 = read_admission(first);
  ASSERT_EQ(a1.str_or("type", ""), "accepted");
  // Give the worker a moment to pop the first job off the queue.
  for (int i = 0; i < 200 && Client(server.endpoint()).stats().get("queue").num_or(
                                 "depth", 1) > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(second.write_line(render_request(slow_job()))); // fills the queue
  const Json a2 = read_admission(second);
  ASSERT_EQ(a2.str_or("type", ""), "accepted");

  ASSERT_TRUE(third.write_line(render_request(slow_job())));  // bounces
  const Json a3 = read_admission(third);
  ASSERT_EQ(a3.str_or("type", ""), "rejected");
  EXPECT_EQ(a3.num_or("retry_after_ms", 0), 7.0);
  EXPECT_EQ(a3.num_or("queue_capacity", 0), 1.0);
}

TEST_F(SvcServer, BurstOverloadAccountsForEveryJob) {
  ServerOptions options;
  options.endpoint = endpoint("burst.sock");
  options.workers = 1;
  options.queue_capacity = 2;
  options.cache_bytes = 0;  // every admitted job stays slow
  Server server(options);
  server.start();

  // Zero inter-arrival time: 1 job in service + 2 queued is all the server
  // can hold, so most of the burst must bounce, and everything admitted
  // must complete.  Each arrival has its own connection.
  constexpr int kSubmitted = 24;
  std::atomic<int> completed{0}, rejected{0}, failed{0};
  std::vector<std::thread> clients;
  for (int j = 0; j < kSubmitted; ++j) {
    clients.emplace_back([&] {
      try {
        const JobResult result = Client(server.endpoint()).submit(slow_job());
        if (result.rejected) {
          ++rejected;
        } else if (result.done) {
          ++completed;
        } else {
          ++failed;
        }
      } catch (const std::exception&) {
        ++failed;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed + rejected, kSubmitted);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(SvcServer, ShutdownDrainsAdmittedJobs) {
  ServerOptions options;
  options.endpoint = endpoint("drain.sock");
  options.workers = 1;
  options.cache_bytes = 0;
  Server server(options);
  server.start();

  // Submit a slow job, then ask for shutdown while it runs.  The admitted
  // job must still stream its complete response.
  LineConn conn = dial(server.endpoint());
  ASSERT_TRUE(conn.write_line(render_request(slow_job())));
  ASSERT_EQ(read_admission(conn).str_or("type", ""), "accepted");

  Client control(server.endpoint());
  ASSERT_TRUE(control.shutdown_server());
  server.wait();  // drain completes before wait() returns

  bool done = false, ok = true;
  std::string line;
  while (conn.read_line(line)) {
    const Json response = Json::parse(line);
    const std::string type = response.str_or("type", "");
    if (type == "scenario") ok = ok && response.bool_or("ok", false);
    if (type == "done") done = true;
    if (type == "failed") ok = false;
  }
  EXPECT_TRUE(done);  // nothing admitted is ever dropped
  EXPECT_TRUE(ok);
}

TEST_F(SvcServer, DeadlineExpiredInQueueFailsCancelled) {
  ServerOptions options;
  options.endpoint = endpoint("deadline.sock");
  options.workers = 1;
  options.cache_bytes = 0;
  Server server(options);
  server.start();

  // Hold the single worker with a slow job so the deadlined job's deadline
  // expires while it waits in the queue — deterministic, no sleeps.
  LineConn blocker = dial(server.endpoint());
  ASSERT_TRUE(blocker.write_line(render_request(slow_job())));
  ASSERT_EQ(read_admission(blocker).str_or("type", ""), "accepted");  // ahead in FIFO

  Client client(server.endpoint());
  JobRequest deadlined = simple_job();
  deadlined.deadline_ms = 50.0;  // far less than slow_job's runtime
  const JobResult result = client.submit(deadlined);
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(result.expired);
  EXPECT_EQ(result.error_code, error_code_name(ErrorCode::Cancelled));

  const Json stats = client.stats();
  EXPECT_EQ(stats.get("jobs").num_or("expired", 0), 1.0);
}

TEST_F(SvcServer, IdempotentResubmitReplaysBitIdenticalResult) {
  ServerOptions options;
  options.endpoint = endpoint("idem.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  JobRequest request = simple_job();
  request.idem_key = content_key(request);
  const JobResult first = client.submit(request);
  ASSERT_TRUE(first.done) << first.error;
  EXPECT_FALSE(first.started.bool_or("idempotent", false));

  // Same idempotency key: answered from the result cache without re-running,
  // bit-identical, and flagged so clients can tell.
  const JobResult replay = client.submit(request);
  ASSERT_TRUE(replay.done) << replay.error;
  EXPECT_TRUE(replay.started.bool_or("idempotent", false));
  EXPECT_NE(replay.id, first.id);  // re-stamped with a fresh job id
  ASSERT_EQ(replay.scenarios.size(), 1u);
  EXPECT_EQ(replay.scenarios[0].num_or("simulated_time", -1),
            first.scenarios[0].num_or("simulated_time", -2));
  EXPECT_EQ(replay.scenarios[0].num_or("actions_replayed", -1),
            first.scenarios[0].num_or("actions_replayed", -2));

  // A different request body is a different key: no false sharing.
  const JobResult other = client.submit(simple_job(2e9));
  ASSERT_TRUE(other.done);
  EXPECT_FALSE(other.started.bool_or("idempotent", false));

  const Json stats = client.stats();
  EXPECT_EQ(stats.get("jobs").num_or("idempotent_replays", 0), 1.0);
}

// submit_with_retry stamps every submit with a content key made of paths,
// not file contents.  After the trace file is rewritten, the result cache
// must not answer with the stream of the old file.
TEST_F(SvcServer, RewrittenTraceIsNotServedFromTheResultCache) {
  ServerOptions options;
  options.endpoint = endpoint("rewrite.sock");
  options.workers = 1;
  Server server(options);
  server.start();

  const JobResult first = submit_with_retry(server.endpoint(), simple_job());
  ASSERT_TRUE(first.done) << first.error;
  titio::write_binary_trace(tit::parse_trace_string("p0 compute 9e9\n"
                                                    "p0 send p1 1024\n"
                                                    "p1 recv p0 1024\n"
                                                    "p1 compute 2e9\n",
                                                    2),
                            trace_path_);
  const JobResult rewritten = submit_with_retry(server.endpoint(), simple_job());
  ASSERT_TRUE(rewritten.done) << rewritten.error;
  EXPECT_FALSE(rewritten.started.bool_or("idempotent", false));
  ASSERT_EQ(rewritten.scenarios.size(), 1u);
  EXPECT_GT(rewritten.scenarios[0].num_or("simulated_time", 0),
            first.scenarios[0].num_or("simulated_time", 0) + 7.0);

  // The file unchanged since: still answered from the result cache.
  const JobResult again = submit_with_retry(server.endpoint(), simple_job());
  ASSERT_TRUE(again.done) << again.error;
  EXPECT_TRUE(again.started.bool_or("idempotent", false));
  ASSERT_EQ(again.scenarios.size(), 1u);
  Json restamped = again.scenarios[0];
  restamped.set("job", rewritten.id);
  EXPECT_EQ(restamped.dump(), rewritten.scenarios[0].dump());  // wall clock included
}

// A text manifest is keyed by its bytes and the bytes of every rank file
// it lists: rewriting one rank file misses the trace cache.
TEST_F(SvcServer, RewrittenTextRankFileMissesTheTraceCache) {
  ServerOptions options;
  options.endpoint = endpoint("text.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  std::ofstream(dir_ / "r0.tit") << "p0 compute 1e9\np0 send p1 1024\n";
  std::ofstream(dir_ / "r1.tit") << "p1 recv p0 1024\np1 compute 2e9\n";
  std::ofstream(dir_ / "t.manifest") << "r0.tit\nr1.tit\n";
  JobRequest request = simple_job();
  request.trace = (dir_ / "t.manifest").string();

  const JobResult cold = client.submit(request);
  ASSERT_TRUE(cold.done) << cold.error;
  EXPECT_EQ(cold.started.str_or("trace_cache", ""), "miss");

  std::ofstream(dir_ / "r1.tit") << "p1 recv p0 1024\np1 compute 8e9\n";
  const JobResult rewritten = client.submit(request);
  ASSERT_TRUE(rewritten.done) << rewritten.error;
  EXPECT_EQ(rewritten.started.str_or("trace_cache", ""), "miss");
  ASSERT_EQ(rewritten.scenarios.size(), 1u);
  EXPECT_GT(rewritten.scenarios[0].num_or("simulated_time", 0),
            cold.scenarios[0].num_or("simulated_time", 0) + 5.0);

  const JobResult unchanged = client.submit(request);
  ASSERT_TRUE(unchanged.done) << unchanged.error;
  EXPECT_EQ(unchanged.started.str_or("trace_cache", ""), "hit");
  EXPECT_EQ(unchanged.scenarios[0].num_or("simulated_time", -1),
            rewritten.scenarios[0].num_or("simulated_time", -2));
}

TEST_F(SvcServer, AllocFailureDegradesToColdPathSamePrediction) {
  ServerOptions options;
  options.endpoint = endpoint("degrade.sock");
  options.workers = 1;
  Server server(options);
  server.start();
  Client client(server.endpoint());

  // Reference prediction with the cache healthy.
  const JobResult healthy = client.submit(simple_job());
  ASSERT_TRUE(healthy.done) << healthy.error;
  ASSERT_TRUE(client.flush());

  // Memory pressure on the trace cache: the job sheds to the direct cold
  // path, still completes, and says so.
  const fault::ScopedPlan plan("seed=1;svc.cache.load=alloc-fail:1.0:1");
  const JobResult degraded = client.submit(simple_job());
  ASSERT_TRUE(degraded.done) << degraded.error;
  EXPECT_TRUE(degraded.started.bool_or("degraded", false));
  EXPECT_TRUE(degraded.epilogue.bool_or("degraded", false));
  EXPECT_EQ(degraded.scenarios[0].num_or("simulated_time", -1),
            healthy.scenarios[0].num_or("simulated_time", -2));

  const Json stats = client.stats();
  EXPECT_EQ(stats.get("jobs").num_or("degraded", 0), 1.0);
}

TEST_F(SvcServer, SubmitWithRetryRidesOutBackpressure) {
  ServerOptions options;
  options.endpoint = endpoint("retry.sock");
  options.workers = 1;
  options.queue_capacity = 1;
  options.cache_bytes = 0;
  options.retry_after_ms = 5;
  Server server(options);
  server.start();

  // Saturate: one slow job running, one queued.  A plain submit would bounce;
  // submit_with_retry honors retry_after_ms and lands once the worker frees.
  LineConn running = dial(server.endpoint());
  LineConn queued = dial(server.endpoint());
  ASSERT_TRUE(running.write_line(render_request(slow_job())));
  std::string line;
  ASSERT_TRUE(running.read_line(line));  // accepted: worker will pick it up
  for (int i = 0; i < 500 && Client(server.endpoint()).stats().get("queue").num_or(
                                 "depth", 1) > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queued.write_line(render_request(slow_job())));
  ASSERT_TRUE(queued.read_line(line));  // admission ack: the queue is now full
  ASSERT_EQ(Json::parse(line).str_or("type", ""), "accepted");

  RetryPolicy policy;
  policy.max_attempts = 1000;  // bounded by the deadline; sanitizers make the
  policy.base_ms = 5.0;        // two slow jobs ahead of us take many seconds
  policy.max_backoff_ms = 100.0;
  policy.deadline_seconds = 120.0;
  std::vector<RetryEvent> schedule;
  const JobResult result =
      submit_with_retry(server.endpoint(), simple_job(), policy, &schedule);
  ASSERT_TRUE(result.done) << result.error;
  EXPECT_GE(result.attempts, 2);
  ASSERT_FALSE(schedule.empty());
  EXPECT_EQ(schedule[0].reason, "rejected");
  // The daemon's hint floors the backoff.
  for (const RetryEvent& event : schedule) EXPECT_GE(event.backoff_ms, 5.0);
}

TEST_F(SvcServer, SubmitWithRetryReportsTransportAfterBoundedAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_ms = 1.0;
  policy.max_backoff_ms = 2.0;
  std::vector<RetryEvent> schedule;
  const JobResult result = submit_with_retry(endpoint("nobody-home.sock"), simple_job(),
                                             policy, &schedule);
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(result.transport);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(schedule.size(), 2u);  // no backoff after the final attempt
  for (const RetryEvent& event : schedule) EXPECT_EQ(event.reason, "transport");
}

TEST_F(SvcServer, RetryJitterIsSeededAndReproducible) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_ms = 1.0;
  policy.max_backoff_ms = 3.0;
  policy.seed = 99;
  std::vector<RetryEvent> first, second;
  submit_with_retry(endpoint("gone.sock"), simple_job(), policy, &first);
  submit_with_retry(endpoint("gone.sock"), simple_job(), policy, &second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].backoff_ms, second[i].backoff_ms);
  }
}

}  // namespace
}  // namespace tir::svc
