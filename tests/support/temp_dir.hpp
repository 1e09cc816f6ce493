// A scratch directory private to one test in one process.  ctest -j runs
// many test processes at once; a fixed directory name lets one process
// delete another's sockets and trace files in its TearDown.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace tir::test {

/// `<TempDir>/<tag>-<pid>-<Suite.Test><suffix>`, created by nobody: the
/// name for one scratch file.  The test name is cut to 40 characters so
/// that unix socket paths inside a unique_temp_dir stay under the 108-byte
/// sun_path limit.
inline std::filesystem::path unique_temp_path(const std::string& tag,
                                              const std::string& suffix = "") {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info ? std::string(info->test_suite_name()) + "." + info->name() : "";
  for (char& c : test) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_') c = '_';
  }
  return std::filesystem::path(::testing::TempDir()) /
         (tag + "-" + std::to_string(::getpid()) + "-" + test.substr(0, 40) + suffix);
}

/// Creates unique_temp_path(tag) as an empty directory and returns it; the
/// caller removes it.
inline std::filesystem::path unique_temp_dir(const std::string& tag) {
  const std::filesystem::path dir = unique_temp_path(tag);
  std::filesystem::remove_all(dir);  // left behind by a crashed process with this pid
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace tir::test
