// Golden calibrated rates: every calibration procedure and every branch of
// the cache-aware selection rule, pinned as %.17g.  Calibration is a pure
// function of its request, so any diff means a change altered which run a
// rate comes from or how that run is simulated.
//
// To regenerate after an intentional change:
//   TIR_UPDATE_GOLDEN=1 ./test_core --gtest_filter='CalibrationGolden.*'
// then review the diff of tests/core/golden/calibration_rates.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/predictor.hpp"
#include "exp/experiments.hpp"
#include "support/golden.hpp"

namespace tir::core {
namespace {

CalibrationRequest request(const std::string& procedure, const std::string& classes, char cls,
                           int nprocs) {
  CalibrationRequest r;
  r.procedure = procedure;
  r.classes = classes;
  r.truth = platform::bordereau_truth();
  r.instance_class = cls;
  r.instance_nprocs = nprocs;
  return r;
}

void add_line(std::string& out, const std::string& name, double rate) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.17g\n", rate);
  out += name + buf;
}

/// The rates of predict_lu_sweep's calibration step for one instance, one
/// line per variant (the pipeline's own calibration path, not the request's).
void add_pipeline_rates(std::string& out, const exp::ClusterSetup& setup, char cls, int nprocs) {
  PipelineSettings base;
  base.iterations = 2;
  base.calibration_iterations = 2;
  PipelineSettings classic = base;
  classic.force_classic_calibration = true;
  PipelineSettings autocal = base;
  autocal.use_auto_calibration = true;
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = nprocs;
  const std::vector<VariantPrediction> predictions = predict_lu_sweep(
      lu, setup.platform, setup.truth, base,
      {{"cache-aware", base}, {"classic", classic}, {"auto", autocal}}, /*jobs=*/1);
  for (const VariantPrediction& p : predictions) {
    add_line(out, "pipeline " + setup.name + " " + lu.label() + " " + p.label,
             p.prediction.calibrated_rate);
  }
}

std::string compute_rates() {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  struct Case {
    const char* name;
    CalibrationRequest request;
  };
  const Case cases[] = {
      {"cache-aware A-8 classes=A", request("cache-aware", "A", 'A', 8)},
      {"cache-aware A-8 classes=BC", request("cache-aware", "BC", 'A', 8)},
      {"cache-aware B-64 classes=B (fits L2)", request("cache-aware", "B", 'B', 64)},
      {"cache-aware B-8 classes=B (spills)", request("cache-aware", "B", 'B', 8)},
      {"cache-aware C-8 classes=BC", request("cache-aware", "BC", 'C', 8)},
      {"cache-aware D-4 classes=BC (unlisted)", request("cache-aware", "BC", 'D', 4)},
      {"classic C-8", request("classic", "BC", 'C', 8)},
      {"auto B-8", request("auto", "BC", 'B', 8)},
  };
  std::string out;
  for (const Case& c : cases) add_line(out, c.name, calibrate_rate(bd.platform, c.request));
  add_pipeline_rates(out, bd, 'B', 8);
  add_pipeline_rates(out, bd, 'B', 64);
  return out;
}

TEST(CalibrationGolden, RatesAreBitIdentical) {
  test::expect_matches_golden(std::string(TIR_CORE_GOLDEN_DIR) + "/calibration_rates.txt",
                              compute_rates());
}

}  // namespace
}  // namespace tir::core
