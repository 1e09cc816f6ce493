// perfbench: the repository benchmark program (perfbench/README.md).
//
//   perfbench --workload replay-stream|mc-contended|tird-mix --seed N
//             --seconds S --trace 0|1 --work DIR --spans DIR
//
// Prints a detail line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an output
// check failed, 2 on a usage or set-up error (printing no result).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload replay-stream|mc-contended|tird-mix --seed N "
               "--seconds S --trace 0|1 --work DIR --spans DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work") {
      options.work = value;
    } else if (flag == "--spans") {
      options.spans = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.work.empty() || options.spans.empty() || !(options.seconds > 0)) {
    return usage(argv[0]);
  }

  try {
    std::filesystem::create_directories(options.work);
    if (options.workload == "replay-stream") return perfbench::run_replay_stream(options);
    if (options.workload == "mc-contended") return perfbench::run_mc_contended(options);
    if (options.workload == "tird-mix") return perfbench::run_tird_mix(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}
