// Golden-file comparison shared by the tests that pin exact output bytes.
// With TIR_UPDATE_GOLDEN set in the environment the file is rewritten from
// the current output and the test is skipped; review the diff, then commit.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace tir::test {

/// Call last in a test: compares `got` with the file at `path`.
inline void expect_matches_golden(const std::string& path, const std::string& got) {
  if (std::getenv("TIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream update(path);
    update << got;
    ASSERT_TRUE(update.good()) << "could not rewrite " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run once with TIR_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "output drifted from " << path
                             << "; if intentional, regenerate with TIR_UPDATE_GOLDEN=1 and "
                                "review the diff";
}

}  // namespace tir::test
