// Paje exporter: structural checks plus a golden-file comparison on a small
// Jacobi replay.  The replay engine is deterministic and the exporter prints
// times at fixed precision, so the export is byte-stable; any diff against
// the golden means the event model or the exporter changed observably.
//
// To regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_obs --gtest_filter='Paje.GoldenJacobi'
// then review the diff of tests/obs/golden/jacobi_small.paje.
#include "obs/paje.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "apps/jacobi.hpp"
#include "core/replay.hpp"
#include "platform/clusters.hpp"

namespace tir::obs {
namespace {

TimelineSink small_jacobi_replay() {
  apps::JacobiConfig jc;
  jc.nprocs = 2;
  jc.nx = 32;
  jc.ny = 32;
  jc.iterations = 2;
  jc.check_every = 2;
  const tit::Trace trace = apps::jacobi_trace(jc);

  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);

  TimelineSink sink;
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.sink = &sink;
  core::replay(core::Backend::Smpi, trace, p, cfg);
  return sink;
}

TEST(Paje, StructurallyWellFormed) {
  const TimelineSink sink = small_jacobi_replay();
  std::ostringstream out;
  write_paje(sink, out);
  const std::string text = out.str();

  // Header defines the six event kinds the body uses.
  EXPECT_NE(text.find("%EventDef PajeDefineContainerType 0"), std::string::npos);
  EXPECT_NE(text.find("%EventDef PajeSetState 5"), std::string::npos);
  // One container per rank, created and destroyed.
  EXPECT_NE(text.find("C_R0"), std::string::npos);
  EXPECT_NE(text.find("C_R1"), std::string::npos);
  // Every body line is one of the defined event ids.
  std::istringstream lines(text);
  std::string line;
  bool in_header = true;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '%') continue;  // header / EndEventDef
    in_header = false;
    ASSERT_TRUE(line[0] >= '0' && line[0] <= '5') << "unknown event id in: " << line;
  }
  EXPECT_FALSE(in_header);  // there was a body
}

TEST(Paje, GoldenJacobi) {
  const TimelineSink sink = small_jacobi_replay();
  std::ostringstream out;
  write_paje(sink, out);
  const std::string got = out.str();

  const std::string golden_path = std::string(TIR_OBS_GOLDEN_DIR) + "/jacobi_small.paje";
  if (std::getenv("TIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream update(golden_path);
    update << got;
    ASSERT_TRUE(update.good()) << "could not rewrite " << golden_path;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run once with TIR_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "Paje export drifted from the golden; if intentional, regenerate with "
         "TIR_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace tir::obs
