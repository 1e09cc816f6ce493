// Differential property test for the incremental simulation kernel
// (docs/simulation_kernel.md): across randomized traces, core::replay
// (Resolve::Incremental: partial max-min re-solve of dirty components only)
// must be *bit-identical* to the core::replay_full_resolve seam
// (Resolve::Full: every flow re-solved every step) — same predicted time,
// same step count, and the same observability timeline down to every
// interval bound and per-link byte count — on both replay back-ends.  Any
// shortcut the incremental path takes that is not exactly equivalent to
// the reference shows up here as a hard failure.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "core/session.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "tit/trace.hpp"

namespace tir::core {
namespace {

tit::Action make_action(tit::ActionType type, int proc, int partner = -1, double volume = 0.0,
                        double volume2 = 0.0) {
  tit::Action a;
  a.type = type;
  a.proc = proc;
  a.partner = partner;
  a.volume = volume;
  a.volume2 = volume2;
  return a;
}

/// Deadlock-free randomized trace: a sequence of phases, each one of
/// {compute, ring shift, neighbor exchange, barrier, allreduce, bcast},
/// with volumes straddling the eager/rendezvous threshold so both SMPI
/// protocol paths and the MSG 64 KiB split are exercised.
tit::Trace random_trace(std::uint64_t seed, int* nprocs_out) {
  rng::Sequence rand(seed);
  const int n = 2 + static_cast<int>(rand.next_u64() % 7);  // 2..8 ranks
  *nprocs_out = n;
  tit::Trace trace(n);
  for (int r = 0; r < n; ++r) trace.push(make_action(tit::ActionType::Init, r));

  const int phases = 3 + static_cast<int>(rand.next_u64() % 6);
  for (int ph = 0; ph < phases; ++ph) {
    const auto kind = rand.next_u64() % 6;
    switch (kind) {
      case 0:  // independent compute
        for (int r = 0; r < n; ++r) {
          trace.push(make_action(tit::ActionType::Compute, r, -1,
                                 rand.next_uniform(1e6, 1e8)));
        }
        break;
      case 1: {  // ring shift: isend right, recv left, wait
        std::vector<double> vol(static_cast<std::size_t>(n));
        for (double& v : vol) v = rand.next_uniform(1e3, 2e5);
        for (int r = 0; r < n; ++r) {
          const int right = (r + 1) % n;
          const int left = (r + n - 1) % n;
          trace.push(make_action(tit::ActionType::Isend, r, right,
                                 vol[static_cast<std::size_t>(r)]));
          trace.push(make_action(tit::ActionType::Recv, r, left,
                                 vol[static_cast<std::size_t>(left)]));
          trace.push(make_action(tit::ActionType::Wait, r));
        }
        break;
      }
      case 2:  // neighbor exchange in disjoint pairs (odd tail computes)
        for (int r = 0; r + 1 < n; r += 2) {
          const double up = rand.next_uniform(1e3, 2e5);
          const double down = rand.next_uniform(1e3, 2e5);
          trace.push(make_action(tit::ActionType::Isend, r, r + 1, up));
          trace.push(make_action(tit::ActionType::Recv, r, r + 1, down));
          trace.push(make_action(tit::ActionType::Wait, r));
          trace.push(make_action(tit::ActionType::Isend, r + 1, r, down));
          trace.push(make_action(tit::ActionType::Recv, r + 1, r, up));
          trace.push(make_action(tit::ActionType::Wait, r + 1));
        }
        if (n % 2 == 1) {
          trace.push(make_action(tit::ActionType::Compute, n - 1, -1,
                                 rand.next_uniform(1e6, 1e7)));
        }
        break;
      case 3:
        for (int r = 0; r < n; ++r) trace.push(make_action(tit::ActionType::Barrier, r));
        break;
      case 4: {
        const double bytes = rand.next_uniform(1e3, 1e5);
        const double flops = rand.next_uniform(1e5, 1e6);
        for (int r = 0; r < n; ++r) {
          trace.push(make_action(tit::ActionType::AllReduce, r, -1, bytes, flops));
        }
        break;
      }
      default: {
        const double bytes = rand.next_uniform(1e3, 1e5);
        for (int r = 0; r < n; ++r) {
          trace.push(make_action(tit::ActionType::Bcast, r, 0, bytes));
        }
        break;
      }
    }
  }
  for (int r = 0; r < n; ++r) trace.push(make_action(tit::ActionType::Finalize, r));
  return trace;
}

void expect_identical_timelines(const obs::TimelineSink& full, const obs::TimelineSink& inc) {
  ASSERT_EQ(full.nranks(), inc.nranks());
  EXPECT_EQ(full.steps(), inc.steps());
  EXPECT_EQ(full.finalized_time(), inc.finalized_time());
  for (int r = 0; r < full.nranks(); ++r) {
    const auto& fi = full.intervals(r);
    const auto& ii = inc.intervals(r);
    ASSERT_EQ(fi.size(), ii.size()) << "rank " << r;
    for (std::size_t k = 0; k < fi.size(); ++k) {
      EXPECT_EQ(fi[k].state, ii[k].state) << "rank " << r << " interval " << k;
      EXPECT_EQ(fi[k].begin, ii[k].begin) << "rank " << r << " interval " << k;
      EXPECT_EQ(fi[k].end, ii[k].end) << "rank " << r << " interval " << k;
      EXPECT_EQ(fi[k].bytes, ii[k].bytes) << "rank " << r << " interval " << k;
      EXPECT_EQ(fi[k].partner, ii[k].partner) << "rank " << r << " interval " << k;
      EXPECT_EQ(fi[k].site, ii[k].site) << "rank " << r << " interval " << k;
      const bool same_op = (fi[k].op == nullptr) == (ii[k].op == nullptr) &&
                           (fi[k].op == nullptr || std::strcmp(fi[k].op, ii[k].op) == 0);
      EXPECT_TRUE(same_op) << "rank " << r << " interval " << k;
    }
  }
  const auto& fl = full.link_usage();
  const auto& il = inc.link_usage();
  ASSERT_EQ(fl.size(), il.size());
  for (std::size_t l = 0; l < fl.size(); ++l) {
    EXPECT_EQ(fl[l].busy_seconds, il[l].busy_seconds) << "link " << l;
    EXPECT_EQ(fl[l].bytes, il[l].bytes) << "link " << l;
  }
}

class IncrementalReplayDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalReplayDifferential, BitIdenticalToFullResolveOnBothBackends) {
  int nprocs = 0;
  const tit::Trace trace = random_trace(GetParam(), &nprocs);
  ASSERT_NO_THROW(tit::validate(trace));

  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = nprocs;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);

  for (const Backend backend : {Backend::Msg, Backend::Smpi}) {
    obs::TimelineSink full_sink;
    obs::TimelineSink inc_sink;
    ReplayConfig cfg;
    cfg.sharing = sim::Sharing::MaxMin;

    cfg.sink = &full_sink;
    titio::MemorySource source(trace);
    const ReplayResult full = replay_full_resolve(backend, source, p, cfg);

    cfg.sink = &inc_sink;
    const ReplayResult inc = replay(backend, trace, p, cfg);

    EXPECT_EQ(full.simulated_time, inc.simulated_time);  // exact, not approximate
    EXPECT_EQ(full.engine_steps, inc.engine_steps);
    EXPECT_EQ(full.actions_replayed, inc.actions_replayed);
    expect_identical_timelines(full_sink, inc_sink);
  }
}

// 100 random traces, each replayed under both back-ends and both Resolve
// modes (the acceptance bar of the incremental-kernel change).
INSTANTIATE_TEST_SUITE_P(RandomTraces, IncrementalReplayDifferential,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace tir::core
