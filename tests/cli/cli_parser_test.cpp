// The shared command-line front end (examples/cli_args.hpp) in-process:
// the flag table, the positional slots and the job flags the replay tools
// declare through it.  tests/cli/cli_args_test.cpp holds each tool to the
// same contract through its binary.
#include "cli_args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace tir;

void quiet_usage(const char*) {}

/// Runs `args` over a command line given as words after the program name.
bool parse(cli::Args& args, std::vector<std::string> words) {
  words.insert(words.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParser, FillsFlagsOptionsAndPositionalsInAnyOrder) {
  cli::Args args(quiet_usage);
  bool verbose = false;
  std::string out;
  double from = -1.0;
  std::string trace;
  int np = -1;
  args.flag({"-v"}, verbose);
  args.option({"-o"}, out);
  args.option({"-from", "--from"}, "seconds", cli::number(from, cli::non_negative));
  args.positional("TRACE", true, trace);
  args.positional("NPROCS", false, "a positive integer", cli::number(np, cli::positive));
  ASSERT_TRUE(parse(args, {"--from", "2.5", "t.titb", "-o", "-dash-value", "-v", "4"}));
  EXPECT_TRUE(verbose);
  EXPECT_EQ(out, "-dash-value");  // an option takes the next word, whatever it looks like
  EXPECT_EQ(from, 2.5);
  EXPECT_EQ(trace, "t.titb");
  EXPECT_EQ(np, 4);
}

TEST(CliParser, RejectsEveryMalformedCommandLine) {
  const auto accepts = [](std::vector<std::string> words) {
    cli::Args args(quiet_usage);
    double from = -1.0;
    std::string trace;
    args.option({"-from"}, "seconds", cli::number(from, cli::non_negative));
    args.positional("TRACE", true, trace);
    return parse(args, std::move(words));
  };
  EXPECT_TRUE(accepts({"t"}));
  EXPECT_FALSE(accepts({}));                      // missing required positional
  EXPECT_FALSE(accepts({"t", "u"}));              // extra positional
  EXPECT_FALSE(accepts({"--bogus", "t"}));        // unknown flag
  EXPECT_FALSE(accepts({"t", "-from"}));          // flag missing its value
  EXPECT_FALSE(accepts({"-from", "-1", "t"}));    // validation
  EXPECT_FALSE(accepts({"-from", "1s", "t"}));    // trailing garbage
  EXPECT_FALSE(accepts({"--from", "1", "t"}));    // undeclared spelling
}

TEST(CliParser, JobFlagsFillTheJob) {
  cli::Args args(quiet_usage);
  cli::JobFlags job;
  job.declare_replay(args, true);
  job.declare_monte_carlo(args);
  ASSERT_TRUE(parse(args, {"-np", "4", "-platform", "p.txt", "-rate", "1e9,2e9", "-backend",
                           "msg", "-contention", "-perturb", "host.speed=uniform:0.1",
                           "-mc-seeds", "3"}));
  EXPECT_EQ(job.np, 4);
  EXPECT_EQ(job.platform, "p.txt");
  EXPECT_EQ(job.rates, (std::vector<double>{1e9, 2e9}));
  EXPECT_EQ(job.backend, core::Backend::Msg);
  EXPECT_EQ(job.sharing(), sim::Sharing::MaxMin);
  EXPECT_EQ(job.perturb, "host.speed=uniform:0.1");
  EXPECT_EQ(job.mc_seeds, 3);
  EXPECT_FALSE(parse(args, {"-perturb", "host.speed=gauss:0.1"}));
  EXPECT_FALSE(parse(args, {"-backend", "mpi"}));
}

}  // namespace
