// Golden fingerprints: ckpt::scenario_fingerprint of one fixed SMPI and one
// fixed MSG scenario, and titio::hash_actions of one fixed trace, pinned as
// %016llx.  Both values are stored in TITB v2 files (checkpoint records and
// trace content hashes), so any drift makes every existing file's
// checkpoints unadoptable; a refactor must leave these lines unchanged.
//
// To regenerate after an intentional format change:
//   TIR_UPDATE_GOLDEN=1 ./test_ckpt --gtest_filter='FingerprintGolden.*'
// then review the diff of tests/ckpt/golden/fingerprints.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/cg.hpp"
#include "ckpt/checkpoint.hpp"
#include "platform/clusters.hpp"
#include "support/golden.hpp"
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

void add_line(std::string& out, const std::string& name, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %016llx\n", static_cast<unsigned long long>(value));
  out += name + buf;
}

TEST(FingerprintGolden, ScenarioAndTraceHashesArePinned) {
  std::string out;

  core::ReplayConfig smpi_cfg;
  smpi_cfg.rates = {1e9};
  add_line(out, "scenario smpi 4 hosts default",
           scenario_fingerprint(core::Backend::Smpi, cluster(4), smpi_cfg));

  core::ReplayConfig msg_cfg;
  msg_cfg.rates = {2e9, 3e9};
  msg_cfg.sharing = sim::Sharing::MaxMin;
  msg_cfg.mpi.model_copy_time = true;
  msg_cfg.mpi.per_message_cpu_seconds = 1e-6;
  add_line(out, "scenario msg 2 hosts maxmin copy",
           scenario_fingerprint(core::Backend::Msg, cluster(2), msg_cfg));

  apps::CgConfig cg;
  cg.nprocs = 4;
  cg.iterations = 3;
  add_line(out, "hash_actions cg 4x3", titio::hash_actions(apps::cg_trace(cg)));

  test::expect_matches_golden(std::string(TIR_CKPT_GOLDEN_DIR) + "/fingerprints.txt", out);
}

}  // namespace
}  // namespace tir::ckpt
