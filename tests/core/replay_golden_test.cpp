// Golden replay matrix: simulated_time (%.17g), engine_steps and
// actions_replayed of acquired LU traces across classes, widths, back-ends
// and sharing modes, plus one Jacobi trace and one checkpoint window.  The
// property and differential suites prove that two sides of a comparison
// agree; this file proves that a refactor or a speed-up left both sides
// where they were.  Every LU cell is also replayed streamed from a TITB file
// and must print the same line as the in-memory replay.
//
// To regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_core --gtest_filter='ReplayGolden.*'
// then review the diff of tests/core/golden/replay_matrix.txt.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/jacobi.hpp"
#include "apps/run.hpp"
#include "ckpt/cursor.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"
#include "support/golden.hpp"
#include "support/temp_dir.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

namespace tir::core {
namespace {

std::string line(const std::string& name, const ReplayResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " simulated_time=%.17g engine_steps=%" PRIu64
                " actions_replayed=%" PRIu64 "\n",
                r.simulated_time, r.engine_steps, r.actions_replayed);
  return name + buf;
}

const char* sharing_name(sim::Sharing s) {
  return s == sim::Sharing::MaxMin ? "maxmin" : "uncontended";
}

/// One acquired LU trace replayed on both back-ends under both sharing
/// modes, in memory and streamed from `path`.
void add_lu_cells(std::string& out, const exp::ClusterSetup& setup, char cls, int nprocs) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = nprocs;
  lu.iterations_override = 2;
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult run =
      apps::run_lu(lu, setup.platform, apps::MachineModel(setup.truth), acq);

  const std::filesystem::path path =
      test::unique_temp_path("replay_golden_" + lu.label(), ".titb");
  titio::write_binary_trace(run.trace, path.string());
  for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
    for (const sim::Sharing sharing : {sim::Sharing::Uncontended, sim::Sharing::MaxMin}) {
      ReplayConfig cfg;
      cfg.rates = {setup.truth.rate_in_cache};
      cfg.sharing = sharing;
      const std::string name = "lu " + lu.label() + " " + backend_name(backend) + " " +
                               sharing_name(sharing);
      const std::string memory = line(name, replay(backend, run.trace, setup.platform, cfg));
      titio::Reader reader(path.string());
      EXPECT_EQ(line(name, replay(backend, reader, setup.platform, cfg)), memory)
          << "streamed replay differs from the in-memory one";
      out += memory;
    }
  }
  std::filesystem::remove(path);
}

void add_jacobi_cells(std::string& out, const exp::ClusterSetup& setup) {
  const tit::Trace trace = apps::jacobi_trace(apps::JacobiConfig{8, 256, 256, 6, 12.0, 3});
  for (const Backend backend : {Backend::Smpi, Backend::Msg}) {
    ReplayConfig cfg;
    cfg.rates = {setup.truth.rate_in_cache};
    out += line(std::string("jacobi 8x256x256 ") + backend_name(backend),
                replay(backend, trace, setup.platform, cfg));
  }
}

/// A checkpointed Jacobi replay: the windowed run of query(T/3, T/2) and
/// the run to the end from the checkpoint that window seeks to.
void add_checkpoint_window(std::string& out, const exp::ClusterSetup& setup) {
  const titio::SharedTrace trace(apps::jacobi_trace(apps::JacobiConfig{8, 256, 256, 6, 12.0, 3}));
  ReplayConfig cfg;
  cfg.rates = {setup.truth.rate_in_cache};
  ckpt::ReplayCursor cursor(trace, setup.platform, cfg, Backend::Smpi);
  const double horizon = cursor.record(32).simulated_time;
  const ckpt::QueryResult q = cursor.query(horizon / 3, horizon / 2);
  char at[64];
  std::snprintf(at, sizeof at, "%.17g", cursor.position());
  out += line(std::string("ckpt jacobi window from ") + at, q.result);
  out += line(std::string("ckpt jacobi resume from ") + at, cursor.run());
}

TEST(ReplayGolden, MatrixIsBitIdentical) {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  std::string out;
  for (const char cls : {'A', 'B'}) {
    for (const int nprocs : {4, 8, 16}) add_lu_cells(out, bd, cls, nprocs);
  }
  add_jacobi_cells(out, bd);
  add_checkpoint_window(out, bd);
  test::expect_matches_golden(std::string(TIR_CORE_GOLDEN_DIR) + "/replay_matrix.txt", out);
}

}  // namespace
}  // namespace tir::core
