// Fault-tolerant replay: structurally broken traces must terminate quickly
// with a structured diagnosis (error code + wait-for report naming the
// blocked ranks), never hang; bad configs fail before any actor spawns;
// the watchdog bounds wall-clock time.
#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "platform/clusters.hpp"

namespace tir::core {
namespace {

platform::Platform cluster(int n = 4) {
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

ReplayConfig identity_config() {
  ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.mpi.piecewise = smpi::PiecewiseModel();
  return cfg;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------- deadlock diagnosis ---------------------------------------------

TEST(Robustness, UnmatchedRecvDiagnosesBlockedRankNewBackend) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 compute 1e6\n"
      "p0 recv p1 10\n",  // p1 never sends
      2);
  const platform::Platform p = cluster(2);
  try {
    replay(Backend::Smpi, t, p, identity_config());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Deadlock);
    ASSERT_EQ(e.blocked().size(), 1u);  // p1 finished; only p0 is wedged
    EXPECT_EQ(e.blocked()[0], "rank0");
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "blocked on p0 recv p1 10")) << what;
    EXPECT_TRUE(contains(what, "last completed: p0 compute")) << what;
  }
}

TEST(Robustness, UnmatchedRecvDiagnosesBlockedRankOldBackend) {
  const tit::Trace t = tit::parse_trace_string("p0 recv p1 10\n", 2);
  const platform::Platform p = cluster(2);
  try {
    replay(Backend::Msg, t, p, identity_config());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    ASSERT_EQ(e.blocked().size(), 1u);
    EXPECT_EQ(e.blocked()[0], "rank0");
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "mailbox 1_0")) << what;
    EXPECT_TRUE(contains(what, "no action completed yet")) << what;
  }
}

TEST(Robustness, CollectiveWithMissingParticipantDeadlocksWithDiagnosis) {
  // p2 never joins the barrier: the other three must be reported blocked on
  // the collective, with the site number the static validator would use.
  const tit::Trace t = tit::parse_trace_string(
      "p0 barrier\n"
      "p1 barrier\n"
      "p2 compute 1e6\n"
      "p3 barrier\n",
      4);
  const platform::Platform p = cluster(4);
  for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
    try {
      replay(backend, t, p, identity_config());
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      EXPECT_EQ(e.blocked().size(), 3u);
      EXPECT_TRUE(contains(e.what(), "collective site 0:")) << e.what();
    }
  }
}

TEST(Robustness, UnmatchedWaitReportsOutstandingRequestsOnBothBackends) {
  // A rendezvous-sized isend nobody receives: the wait can never complete.
  const tit::Trace t = tit::parse_trace_string(
      "p0 isend p1 100000\n"
      "p0 wait\n"
      "p1 compute 1e6\n",
      2);
  const platform::Platform p = cluster(2);
  for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
    try {
      replay(backend, t, p, identity_config());
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      EXPECT_TRUE(contains(what, "blocked on wait (oldest of 1 outstanding request(s))")) << what;
      EXPECT_TRUE(contains(what, "last completed: p0 isend p1 100000")) << what;
    }
  }
}

TEST(Robustness, DeadlockErrorIsStillASimError) {
  // Compatibility: callers catching the old SimError keep working.
  const tit::Trace t = tit::parse_trace_string("p0 recv p1 10\n", 2);
  EXPECT_THROW(replay(Backend::Smpi, t, cluster(2), identity_config()), SimError);
}

// ---------- malformed actions fail fast ------------------------------------

TEST(Robustness, SelfSendFailsFastOnBothBackends) {
  const tit::Trace t = tit::parse_trace_string("p0 send p0 64\n", 2);
  const platform::Platform p = cluster(2);
  try {
    replay(Backend::Smpi, t, p, identity_config());
    FAIL() << "expected MalformedTraceError";
  } catch (const MalformedTraceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::MalformedTrace);
    EXPECT_TRUE(contains(e.what(), "self-message")) << e.what();
  }
  EXPECT_THROW(replay(Backend::Msg, t, p, identity_config()), MalformedTraceError);
}

TEST(Robustness, PartnerOutOfRangeFailsFastOnBothBackends) {
  const tit::Trace t = tit::parse_trace_string("p0 send p7 64\n", 2);
  const platform::Platform p = cluster(2);
  EXPECT_THROW(replay(Backend::Smpi, t, p, identity_config()), MalformedTraceError);
  EXPECT_THROW(replay(Backend::Msg, t, p, identity_config()), MalformedTraceError);
}

TEST(Robustness, OutOfRangeCollectiveRootFailsFastOnBothBackends) {
  // Streamed sources, tird jobs and checkpoint cursors never run the static
  // validator, so the replay itself must reject a root outside the trace.
  for (const char* text : {"p0 bcast 100 5\np1 bcast 100 5\n",
                           "p0 reduce 100 10 2\np1 reduce 100 10 2\n",
                           "p0 gather 100 2\np1 gather 100 2\n",
                           "p0 scatter 100 9\np1 scatter 100 9\n"}) {
    const tit::Trace t = tit::parse_trace_string(text, 2);
    const platform::Platform p = cluster(2);
    for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
      try {
        replay(backend, t, p, identity_config());
        FAIL() << "expected MalformedTraceError for " << text;
      } catch (const MalformedTraceError& e) {
        EXPECT_EQ(e.code(), ErrorCode::MalformedTrace);
        EXPECT_TRUE(contains(e.what(), "root out of range")) << e.what();
      }
    }
  }
}

TEST(Robustness, WaitWithoutRequestIsMalformedTrace) {
  const tit::Trace t = tit::parse_trace_string("p0 wait\n", 1);
  EXPECT_THROW(replay(Backend::Smpi, t, cluster(1), identity_config()), MalformedTraceError);
}

// ---------- config validation ----------------------------------------------

TEST(Robustness, TooFewCalibratedRatesIsAConfigError) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 compute 10\np1 compute 10\np2 compute 10\n", 3);
  ReplayConfig cfg = identity_config();
  cfg.rates = {1e9, 1e9};  // 3 ranks, 2 rates: neither uniform nor per-rank
  try {
    replay(Backend::Smpi, t, cluster(3), cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Config);
    EXPECT_TRUE(contains(e.what(), "3 ranks")) << e.what();
    EXPECT_TRUE(contains(e.what(), "2 calibrated rates")) << e.what();
  }
  EXPECT_THROW(replay(Backend::Msg, t, cluster(3), cfg), ConfigError);
}

TEST(Robustness, NonPositiveRateIsAConfigError) {
  const tit::Trace t = tit::parse_trace_string("p0 compute 10\n", 1);
  ReplayConfig cfg = identity_config();
  cfg.rates = {0.0};
  EXPECT_THROW(replay(Backend::Smpi, t, cluster(1), cfg), ConfigError);
  cfg.rates = {};
  EXPECT_THROW(replay(Backend::Smpi, t, cluster(1), cfg), ConfigError);
}

TEST(Robustness, RateForValidatesRankBounds) {
  ReplayConfig cfg;
  cfg.rates = {1e9, 2e9};
  EXPECT_NO_THROW(cfg.rate_for(1));
  EXPECT_THROW(cfg.rate_for(5), ConfigError);   // was a bare std::out_of_range
  EXPECT_THROW(cfg.rate_for(-1), ConfigError);
  cfg.rates = {1e9};
  EXPECT_NO_THROW(cfg.rate_for(100));  // uniform rate covers every rank
}

// ---------- watchdog --------------------------------------------------------

TEST(Robustness, WatchdogCancelsLongReplay) {
  // A large trace with an impossibly small wall-clock budget: the replay
  // must be cancelled with a typed error, not run to completion.
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    text += "p0 compute 1e6\np1 compute 1e6\n";
  }
  const tit::Trace t = tit::parse_trace_string(text, 2);
  const platform::Platform p = cluster(2);
  ReplayConfig cfg = identity_config();
  cfg.watchdog_seconds = 1e-9;
  try {
    replay(Backend::Smpi, t, p, cfg);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Watchdog);
    EXPECT_TRUE(contains(e.what(), "wall-clock")) << e.what();
  }
  EXPECT_THROW(replay(Backend::Msg, t, p, cfg), WatchdogError);
}

TEST(Robustness, WatchdogDisabledByDefault) {
  const tit::Trace t = tit::parse_trace_string("p0 compute 1e9\n", 1);
  EXPECT_NO_THROW(replay(Backend::Smpi, t, cluster(1), identity_config()));
}

}  // namespace
}  // namespace tir::core
