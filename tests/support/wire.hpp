// Wire-level helpers for the tests that pin tird response bytes.
#pragma once

#include <regex>
#include <string>

#include "base/json.hpp"

namespace tir::test {

/// A response line with its run-to-run timing fields masked.
inline std::string without_timings(const Json& line) {
  static const std::regex timing(
      R"re("(queue_wait_seconds|decode_seconds|calibrate_seconds|replay_seconds|)re"
      R"re(wall_clock_seconds|total_queue_wait|total_replay_wall|max_queue_wait)":[^,}\]]+)re");
  return std::regex_replace(line.dump(), timing, R"("$1":"-")");
}

}  // namespace tir::test
