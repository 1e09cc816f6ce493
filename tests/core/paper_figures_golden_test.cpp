// Golden error tables of the paper's accuracy figures: real, predicted and
// relative error of every instance of Figures 3, 6 and 7 (the instances and
// process counts of bench/fig{3,6,7}_*.cpp), pinned as %.17g at two SSOR
// iterations.  Each row runs the whole predict_lu pipeline: ground-truth
// and traced machine runs, calibration, replay.  Figure 6 adds the
// automatic-calibration row and Figure 7 the copy-time row, the paper's two
// announced future-work features.  One test per figure so ctest -j spreads
// them.
//
// To regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_core --gtest_filter='PaperFigures.*'
// then review the diff of tests/core/golden/figure*_errors.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "exp/experiments.hpp"
#include "support/golden.hpp"

namespace tir::core {
namespace {

PipelineSettings figure_settings(const exp::ClusterSetup& cluster, Framework framework) {
  PipelineSettings settings;
  settings.framework = framework;
  settings.iterations = 2;
  settings.calibration_iterations = 2;
  settings.probe_costs = cluster.probe_costs;
  return settings;
}

void add_row(std::string& out, const exp::ClusterSetup& cluster, char cls, int nprocs,
             const PipelineSettings& settings, const char* note = "") {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = nprocs;
  lu.iterations_override = settings.iterations;
  const Prediction p = predict_lu(lu, cluster.platform, cluster.truth, settings);
  char line[256];
  std::snprintf(line, sizeof line, "%s%s real %.17g predicted %.17g error %.17g\n",
                lu.label().c_str(), note, p.real_seconds, p.predicted_seconds, p.error_pct);
  out += line;
}

/// Classes B and C at every process count, as the figure's bench runs them.
std::string figure_rows(const exp::ClusterSetup& cluster, const std::vector<int>& counts,
                        const PipelineSettings& settings) {
  std::string out;
  for (const char cls : {'B', 'C'}) {
    for (const int np : counts) add_row(out, cluster, cls, np, settings);
  }
  return out;
}

std::string golden(const char* name) { return std::string(TIR_CORE_GOLDEN_DIR) + "/" + name; }

TEST(PaperFigures, Figure3OriginalOnBordereau) {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  const std::string got =
      figure_rows(bd, {8, 16, 32, 64}, figure_settings(bd, Framework::Original));
  test::expect_matches_golden(golden("figure3_errors.txt"), got);
}

TEST(PaperFigures, Figure6ImprovedOnBordereau) {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  const PipelineSettings settings = figure_settings(bd, Framework::Improved);
  std::string got = figure_rows(bd, {8, 16, 32, 64}, settings);
  PipelineSettings autocal = settings;
  autocal.use_auto_calibration = true;
  add_row(got, bd, 'B', 8, autocal, " auto-calibration");
  test::expect_matches_golden(golden("figure6_errors.txt"), got);
}

TEST(PaperFigures, Figure7ImprovedOnGraphene) {
  const exp::ClusterSetup gr = exp::graphene_setup();
  const PipelineSettings settings = figure_settings(gr, Framework::Improved);
  std::string got = figure_rows(gr, {8, 16, 32, 64, 128}, settings);
  PipelineSettings copy_time = settings;
  copy_time.replay_models_copy_time = true;
  add_row(got, gr, 'B', 64, copy_time, " copy-time");
  test::expect_matches_golden(golden("figure7_errors.txt"), got);
}

}  // namespace
}  // namespace tir::core
