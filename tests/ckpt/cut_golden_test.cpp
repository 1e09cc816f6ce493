// Golden cuts: every checkpoint ReplayCursor::record finds, pinned as the
// cut time (%.17g) plus each rank's position, boundary time, collective
// sites and prefix hash.  The differential suite proves that a restore from
// any recorded cut is exact; this file proves that a refactor of the
// cut-finder still finds the same cuts.  Two traces:
//   * a 4-rank isend/irecv/wait/waitall trace with collectives, on SMPI and
//     on MSG (MSG's irecv completes at the action, SMPI's at its wait, so
//     the two record different cuts);
//   * the Jacobi trace of tests/core/golden/replay_matrix.txt at interval 32.
//
// To regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_ckpt --gtest_filter='CutGolden.*'
// then review the diff of tests/ckpt/golden/cuts.txt.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "apps/jacobi.hpp"
#include "ckpt/cursor.hpp"
#include "platform/clusters.hpp"
#include "support/golden.hpp"
#include "tit/trace.hpp"
#include "titio/shared.hpp"

namespace tir::ckpt {
namespace {

platform::Platform cluster(int n) {
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

/// Nonblocking pairs (p0-p1 waitall, p2-p3 one wait per request) with an
/// allreduce every round and a bcast or barrier every other round.  Even
/// ranks send first, so MSG's blocking irecv cannot deadlock.
tit::Trace nonblocking(int rounds) {
  std::string text;
  for (int k = 0; k < rounds; ++k) {
    text += "p0 compute 1e7\np0 isend p1 8192\np0 irecv p1 8192\np0 waitall\n";
    text += "p1 compute 2e7\np1 irecv p0 8192\np1 isend p0 8192\np1 wait\np1 wait\n";
    text += "p2 compute 1.5e7\np2 isend p3 65536\np2 wait\np2 irecv p3 4096\np2 wait\n";
    text += "p3 compute 1e7\np3 irecv p2 65536\np3 wait\np3 isend p2 4096\np3 wait\n";
    for (int r = 0; r < 4; ++r) {
      const std::string p = "p" + std::to_string(r);
      text += p + " allreduce 8 1e6\n";
      if (k % 2 == 1) text += p + (k % 4 == 1 ? " bcast 1024\n" : " barrier\n");
    }
  }
  return tit::parse_trace_string(text, 4);
}

void add_cuts(std::string& out, const std::string& name, const titio::SharedTrace& trace,
              const platform::Platform& platform, const core::ReplayConfig& config,
              core::Backend backend, std::uint64_t interval) {
  ReplayCursor cursor(trace, platform, config, backend);
  cursor.record(interval);
  const std::vector<TraceCheckpoint>& cuts = cursor.checkpoints().checkpoints;
  char buf[160];
  std::snprintf(buf, sizeof buf, " interval=%" PRIu64 " cuts=%zu\n", interval, cuts.size());
  out += name + buf;
  for (const TraceCheckpoint& c : cuts) {
    std::snprintf(buf, sizeof buf, "  cut time=%.17g\n", c.time);
    out += buf;
    for (std::size_t r = 0; r < c.ranks.size(); ++r) {
      const CkptRankState& st = c.ranks[r];
      std::snprintf(buf, sizeof buf,
                    "    p%zu position=%" PRIu64 " time=%.17g sites=%" PRIu64
                    " prefix=%016" PRIx64 "\n",
                    r, st.position, st.time, st.collective_sites, st.prefix_hash);
      out += buf;
    }
  }
}

TEST(CutGolden, RecordedCutsArePinned) {
  std::string out;

  const titio::SharedTrace mixed(nonblocking(12));
  const platform::Platform flat = cluster(4);
  core::ReplayConfig flat_cfg;
  flat_cfg.rates = {1e9};
  add_cuts(out, "nonblocking 4x12 smpi", mixed, flat, flat_cfg, core::Backend::Smpi, 16);
  add_cuts(out, "nonblocking 4x12 msg", mixed, flat, flat_cfg, core::Backend::Msg, 16);

  const titio::SharedTrace jacobi(
      apps::jacobi_trace(apps::JacobiConfig{8, 256, 256, 6, 12.0, 3}));
  const platform::Platform bordereau = platform::bordereau();
  core::ReplayConfig bd_cfg;
  bd_cfg.rates = {platform::bordereau_truth().rate_in_cache};
  add_cuts(out, "jacobi 8x256x256 smpi", jacobi, bordereau, bd_cfg, core::Backend::Smpi, 32);

  test::expect_matches_golden(std::string(TIR_CKPT_GOLDEN_DIR) + "/cuts.txt", out);
}

}  // namespace
}  // namespace tir::ckpt
