// The CLI argument contract: tir-profile, trace_inspect, replay_cli,
// tit-convert, tird, tir-submit and lu_prediction must reject unknown
// flags, malformed or out-of-range operands and stray positionals with the
// usage text and exit 2 — a typo must never silently replay the wrong
// scenario (or convert the wrong number of ranks, or start a daemon that
// rejects every job).
// Exercised against the real binaries (paths injected by CMake) through
// std::system.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "support/golden.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/writer.hpp"

namespace {

namespace fs = std::filesystem;

int run(const std::string& command) {
  // Quiet: these invocations are EXPECTED to complain on stderr.
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Wall-clock figures differ from run to run; the simulated ones must not.
std::string mask_wall_clock(std::string text) {
  text = std::regex_replace(text, std::regex("wall-clock: [^\n]*"), "wall-clock: <masked>");
  return std::regex_replace(text, std::regex("\\(wall [0-9.]+ s\\)"), "(wall <masked>)");
}

/// Each test gets its own copy of the trace fixture: tir-profile -save-ckpt
/// rewrites the file in place, which must not race another test reading it.
class CliArgs : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tir::test::unique_temp_dir("cli_args");
    tir::tit::Trace trace = tir::tit::parse_trace_string(
        "p0 compute 1e7\np0 send p1 1024\np0 recv p1 1024\n"
        "p1 compute 1e7\np1 recv p0 1024\np1 send p0 1024\n",
        2);
    tir::titio::write_binary_trace(trace, titb_fixture());
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string titb_fixture() const { return (dir_ / "fixture.titb").string(); }

  /// One golden section: the command line after the binary, its exit
  /// status, then its stdout with wall-clock figures masked and the scratch
  /// directory spelled <dir>.
  std::string golden_run(const std::string& binary, const std::string& args) {
    const fs::path out = dir_ / "stdout.txt";
    const int status = run_to(binary + " " + args, out);
    return "### " + scrub(args) + "\nexit " + std::to_string(status) + "\n" +
           scrub(mask_wall_clock(read_file(out)));
  }

  std::string scrub(std::string text) const {
    const std::string dir = dir_.string();
    for (std::size_t at = text.find(dir); at != std::string::npos; at = text.find(dir, at)) {
      text.replace(at, dir.size(), "<dir>");
    }
    return text;
  }

  static int run_to(const std::string& command, const fs::path& out) {
    const int status = std::system((command + " >" + out.string() + " 2>/dev/null").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path dir_;
};

TEST_F(CliArgs, TraceInspectRejectsUnknownFlags) {
  const std::string inspect = TIR_TRACE_INSPECT;
  EXPECT_EQ(run(inspect + " --bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(inspect + " -v"), 2);
  EXPECT_EQ(run(inspect), 2);  // no trace at all
}

TEST_F(CliArgs, TraceInspectRejectsExtraPositionalsAndBadNprocs) {
  const std::string inspect = TIR_TRACE_INSPECT;
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " 4 extra"), 2);
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " banana"), 2);
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " 0"), 2);
}

TEST_F(CliArgs, TraceInspectAcceptsAValidTrace) {
  EXPECT_EQ(run(std::string(TIR_TRACE_INSPECT) + " " + titb_fixture()), 0);
}

TEST_F(CliArgs, ProfileRejectsUnknownFlagsAndOperands) {
  const std::string profile = TIR_PROFILE;
  EXPECT_EQ(run(profile + " --bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(profile + " -backend bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(profile + " -np"), 2);  // flag missing its value
  EXPECT_EQ(run(profile + " " + titb_fixture() + " stray.titb"), 2);
  EXPECT_EQ(run(profile), 2);
}

TEST_F(CliArgs, ProfileRejectsMalformedWindows) {
  const std::string profile = TIR_PROFILE;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(profile + " -from banana -to 2" + trace), 2);
  EXPECT_EQ(run(profile + " -from 1" + trace), 2);            // -from without -to
  EXPECT_EQ(run(profile + " -from 2 -to 1" + trace), 2);      // inverted
  EXPECT_EQ(run(profile + " -from -1 -to 2" + trace), 2);     // negative
}

TEST_F(CliArgs, ProfileRunsColdAndWindowed) {
  const fs::path out = dir_ / "profile_out";
  const std::string profile = TIR_PROFILE;
  const std::string tail = " -o " + out.string() + " " + titb_fixture();
  EXPECT_EQ(run(profile + tail), 0);
  // Windowed: records checkpoints on the fly, saves them into the .titb,
  // then a second windowed run adopts them from the file.
  EXPECT_EQ(run(profile + " -from 0 -to 0.001 -save-ckpt" + tail), 0);
  EXPECT_EQ(run(profile + " -from 0 -to 0.001" + tail), 0);
}

// The fixture is shorter than one cut interval, so no checkpoint is
// recorded: -save-ckpt must leave the file byte for byte as it was rather
// than append an empty checkpoint block.
TEST_F(CliArgs, ProfileSaveCkptLeavesAShortTraceUnchanged) {
  const std::string before = read_file(titb_fixture());
  const std::string profile = TIR_PROFILE;
  EXPECT_EQ(run(profile + " -from 0 -to 0.001 -save-ckpt -o " + (dir_ / "out").string() + " " +
                titb_fixture()),
            0);
  EXPECT_EQ(read_file(titb_fixture()), before);
}

TEST_F(CliArgs, LuPredictionRejectsBadInstances) {
  const std::string lu = TIR_LU_PREDICTION;
  EXPECT_EQ(run(lu + " B 6"), 2);   // NPB LU needs a power-of-two rank count
  EXPECT_EQ(run(lu + " B 0"), 2);
  EXPECT_EQ(run(lu + " Z 4"), 2);   // unknown class
  EXPECT_EQ(run(lu + " BB 4"), 2);
  EXPECT_EQ(run(lu + " B 4 summit"), 2);  // unknown cluster
  EXPECT_EQ(run(lu + " B 4 bordereau extra"), 2);
}

TEST_F(CliArgs, ReplayCliRejectsUnknownFlagsAndOperands) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + " --bogus" + trace), 2);
  EXPECT_EQ(run(replay + " -backend bogus" + trace), 2);  // not silently smpi
  EXPECT_EQ(run(replay + " -np"), 2);                     // flag missing its value
  EXPECT_EQ(run(replay + " -np banana" + trace), 2);
  EXPECT_EQ(run(replay + " -np 0" + trace), 2);
  EXPECT_EQ(run(replay + " -rate 1e9,banana" + trace), 2);
  EXPECT_EQ(run(replay + " -jobs two" + trace), 2);
  EXPECT_EQ(run(replay + trace + " stray.manifest"), 2);
  EXPECT_EQ(run(replay), 2);  // no manifest at all
}

TEST_F(CliArgs, ReplayCliRejectsMalformedPerturbations) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + " -perturb 'host.speed=gauss:0.1'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'host.speed=uniform:nope'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'seed=1;bogus.key=uniform:0.1'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'host.speed=uniform:0.1' -mc-seeds 0" + trace), 2);
  EXPECT_EQ(run(replay + " -mc-seeds 4" + trace), 2);  // -mc-seeds without -perturb...
  EXPECT_EQ(run(replay + " -tornado" + trace), 2);     // ...and -tornado likewise
}

TEST_F(CliArgs, ReplayCliRunsPointAndMonteCarlo) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + trace), 0);
  EXPECT_EQ(run(replay + " -rate 1e9,2e9 -contention" + trace), 0);
  EXPECT_EQ(run(replay +
                " -perturb 'seed=3;host.speed=uniform:0.2;link.bw=lognormal:0.1'"
                " -mc-seeds 3 -tornado -mc-report -" +
                trace),
            0);
}

TEST_F(CliArgs, ProfileRejectsMalformedNumbers) {
  const std::string profile =
      std::string(TIR_PROFILE) + " -o " + (dir_ / "profile_out").string();
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(profile + " -np banana" + trace), 2);
  EXPECT_EQ(run(profile + " -np 0" + trace), 2);
  EXPECT_EQ(run(profile + " -rate fast" + trace), 2);
}

// -rate inf used to price every compute at zero and exit 0; -rate 0 and
// nan tripped an assertion in the default cluster instead of a usage error.
TEST_F(CliArgs, RatesMustBeFiniteAndPositive) {
  const std::string trace = " " + titb_fixture();
  const std::string profile =
      std::string(TIR_PROFILE) + " -o " + (dir_ / "profile_out").string();
  const std::string submit =
      std::string(TIR_SUBMIT) + " -connect unix:" + (dir_ / "none.sock").string();
  for (const char* rate : {"inf", "-inf", "nan", "0", "-1e9", "1e999"}) {
    EXPECT_EQ(run(std::string(TIR_REPLAY_CLI) + " -rate " + rate + trace), 2) << rate;
    EXPECT_EQ(run(std::string(TIR_REPLAY_CLI) + " -rate 1e9," + rate + trace), 2) << rate;
    EXPECT_EQ(run(profile + " -rate " + rate + trace), 2) << rate;
    EXPECT_EQ(run(submit + " -rate " + rate + trace), 2) << rate;
  }
  EXPECT_EQ(run(profile + " -rate 1e9,2e9" + trace), 2);  // tir-profile takes one rate
  EXPECT_EQ(run(std::string(TIR_REPLAY_CLI) + " -rate 2e9" + trace), 0);
  EXPECT_EQ(run(profile + " -rate 2e9" + trace), 0);
}

// Every spelling a tool documents still parses: the double-dash aliases of
// tir-profile's window flags, and tird's --fault-plan.
TEST_F(CliArgs, AliasSpellingsAreAccepted) {
  const std::string profile =
      std::string(TIR_PROFILE) + " -o " + (dir_ / "profile_out").string();
  EXPECT_EQ(run(profile + " --from 0 --to 0.001 --save-ckpt " + titb_fixture()), 0);
  EXPECT_EQ(run(std::string(TIR_TIRD) + " -listen bogus --fault-plan 'seed=1'"), 1);
  EXPECT_EQ(run(std::string(TIR_TIRD) + " -listen bogus --fault-plan"), 2);  // missing value
}

// The endpoint is unusable on purpose: a flag the daemon wrongly accepts
// ends in a bind failure (exit 1), never in a listening daemon.
TEST_F(CliArgs, TirdRejectsMalformedNumbers) {
  const std::string tird = std::string(TIR_TIRD) + " -listen bogus";
  EXPECT_EQ(run(tird + " -queue abc"), 2);  // would be capacity 0: every job rejected
  EXPECT_EQ(run(tird + " -queue -1"), 2);   // would be capacity 2^64-1: no backpressure
  EXPECT_EQ(run(tird + " -queue 0"), 2);
  EXPECT_EQ(run(tird + " -cache-mb -1"), 2);
  EXPECT_EQ(run(tird + " -cache-mb 1e300"), 2);
  EXPECT_EQ(run(tird + " -workers two"), 2);
  EXPECT_EQ(run(tird + " -retry-after-ms -5"), 2);
  EXPECT_EQ(run(tird + " -read-timeout-ms 1.5"), 2);
  EXPECT_EQ(run(tird + " -write-timeout-ms 4294967296"), 2);
  EXPECT_EQ(run(tird + " -queue 8 -cache-mb 0.5 -workers 1"), 1);  // well-formed: bind fails
}

// 2^32 + 1 used to pass through a long -> int cast as 1.
TEST_F(CliArgs, IntegerOperandsRejectOverflow) {
  const std::string trace = " " + titb_fixture();
  const std::string submit =
      std::string(TIR_SUBMIT) + " -connect unix:" + (dir_ / "none.sock").string();
  EXPECT_EQ(run(std::string(TIR_REPLAY_CLI) + " -np 4294967297" + trace), 2);
  EXPECT_EQ(run(std::string(TIR_REPLAY_CLI) + " -jobs 99999999999" + trace), 2);
  EXPECT_EQ(run(std::string(TIR_TIT_CONVERT) + " validate" + trace + " 4294967297"), 2);
  EXPECT_EQ(run(std::string(TIR_TRACE_INSPECT) + trace + " 4294967297"), 2);
  EXPECT_EQ(run(submit + " -np 4294967297 -rate 1e9" + trace), 2);
  EXPECT_EQ(run(submit + " -seed 18446744073709551616 -rate 1e9" + trace), 2);
}

TEST_F(CliArgs, SubmitNeedsARateOrACalibration) {
  const std::string submit =
      std::string(TIR_SUBMIT) + " -connect unix:" + (dir_ / "none.sock").string();
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(submit + trace), 2);  // the daemon would refuse it
  EXPECT_EQ(run(submit + " -rate 1e9,x" + trace), 2);
  // Well-formed jobs get as far as dialing, and nothing listens there.
  EXPECT_EQ(run(submit + " -rate 1e9" + trace), 11);
  EXPECT_EQ(run(submit + " -calibrate auto" + trace), 11);
}

// The stdout of four replay_cli runs on the fixture, pinned byte for byte
// (wall-clock masked): a point run, a contended two-rate sweep, the MSG
// back-end and a Monte Carlo tornado grid with its JSON report.
TEST_F(CliArgs, ReplayCliOutputMatchesGolden) {
  std::string got;
  for (const char* args : {"", "-rate 1e9,2e9 -contention ", "-backend msg ",
                           "-perturb 'seed=3;host.speed=uniform:0.2;link.bw=lognormal:0.1'"
                           " -mc-seeds 3 -tornado -mc-report - "}) {
    got += golden_run(TIR_REPLAY_CLI, args + titb_fixture());
  }
  tir::test::expect_matches_golden(std::string(TIR_CLI_GOLDEN_DIR) + "/replay_cli.txt", got);
}

// tir-profile's stdout and the metrics JSON it writes next to the .paje.
TEST_F(CliArgs, ProfileOutputMatchesGolden) {
  const fs::path base = dir_ / "profile";
  std::string got = golden_run(TIR_PROFILE, "-o " + base.string() + " " + titb_fixture());
  got += "### " + scrub(base.string()) + ".json\n" + read_file(base.string() + ".json");
  tir::test::expect_matches_golden(std::string(TIR_CLI_GOLDEN_DIR) + "/tir_profile.txt", got);
}

TEST_F(CliArgs, TitConvertRejectsBadModesAndNprocs) {
  const std::string convert = TIR_TIT_CONVERT;
  EXPECT_EQ(run(convert), 2);
  EXPECT_EQ(run(convert + " banana " + titb_fixture()), 2);  // unknown mode
  EXPECT_EQ(run(convert + " info"), 2);                      // missing operand
  EXPECT_EQ(run(convert + " -v info " + titb_fixture()), 2);
  EXPECT_EQ(run(convert + " validate " + titb_fixture() + " banana"), 2);
  EXPECT_EQ(run(convert + " validate " + titb_fixture() + " 0"), 2);
  EXPECT_EQ(run(convert + " text2bin m.manifest out.titb 2x"), 2);
}

TEST_F(CliArgs, TitConvertRoundTripsAndValidates) {
  const std::string convert = TIR_TIT_CONVERT;
  const fs::path dir = dir_ / "convert_out";
  fs::create_directories(dir);
  EXPECT_EQ(run(convert + " info " + titb_fixture()), 0);
  EXPECT_EQ(run(convert + " validate " + titb_fixture()), 0);
  EXPECT_EQ(run(convert + " bin2text " + titb_fixture() + " " + dir.string() + " t"), 0);
  const std::string manifest = (dir / "t.manifest").string();
  EXPECT_EQ(run(convert + " text2bin " + manifest + " " + (dir / "back.titb").string()), 0);
}

// An NPROCS operand that disagrees with a multi-file manifest is an error
// for text2bin as for validate, and writes no file.
TEST_F(CliArgs, TitConvertRefusesAnNprocsTheManifestContradicts) {
  const std::string convert = TIR_TIT_CONVERT;
  const fs::path dir = dir_ / "nprocs";
  fs::create_directories(dir);
  ASSERT_EQ(run(convert + " bin2text " + titb_fixture() + " " + dir.string() + " t"), 0);
  const std::string manifest = (dir / "t.manifest").string();  // two rank files
  const fs::path out = dir / "out.titb";
  EXPECT_EQ(run(convert + " text2bin " + manifest + " " + out.string() + " 3"), 1);
  EXPECT_FALSE(fs::exists(out));
  EXPECT_EQ(run(convert + " validate " + manifest + " 3"), 1);
  EXPECT_EQ(run(convert + " text2bin " + manifest + " " + out.string() + " 2"), 0);
}

}  // namespace
