#include "tit/trace.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "support/temp_dir.hpp"

namespace tir::tit {
namespace {

TEST(TitParse, PaperSnippetRoundTrips) {
  // The exact snippet from paper §3.2.
  const char* kSnippet =
      "p0 compute 956140\n"
      "p0 send p1 1240\n"
      "p0 compute 2110\n"
      "p0 send p2 1240\n"
      "p0 compute 3821\n";
  const Trace t = parse_trace_string(kSnippet, 3);
  ASSERT_EQ(t.actions(0).size(), 5u);
  EXPECT_EQ(t.actions(0)[0].type, ActionType::Compute);
  EXPECT_DOUBLE_EQ(t.actions(0)[0].volume, 956140.0);
  EXPECT_EQ(t.actions(0)[1].type, ActionType::Send);
  EXPECT_EQ(t.actions(0)[1].partner, 1);
  EXPECT_DOUBLE_EQ(t.actions(0)[1].volume, 1240.0);
  // Round trip through to_line.
  std::string rendered;
  for (const Action& a : t.actions(0)) rendered += to_line(a) + "\n";
  EXPECT_EQ(rendered, kSnippet);
}

TEST(TitParse, RanksWithAndWithoutPPrefix) {
  EXPECT_EQ(parse_line("p3 compute 10").proc, 3);
  EXPECT_EQ(parse_line("3 compute 10").proc, 3);
  EXPECT_EQ(parse_line("p0 send 2 99").partner, 2);
}

TEST(TitParse, RecvWithAndWithoutSize) {
  const Action new_style = parse_line("p0 recv p1 1240");
  EXPECT_DOUBLE_EQ(new_style.volume, 1240.0);
  const Action old_style = parse_line("p0 recv p1");
  EXPECT_DOUBLE_EQ(old_style.volume, kNoVolume);
}

TEST(TitParse, AllVerbsParse) {
  EXPECT_EQ(parse_line("p0 init").type, ActionType::Init);
  EXPECT_EQ(parse_line("p0 finalize").type, ActionType::Finalize);
  EXPECT_EQ(parse_line("p0 isend p1 64").type, ActionType::Isend);
  EXPECT_EQ(parse_line("p0 irecv p1 64").type, ActionType::Irecv);
  EXPECT_EQ(parse_line("p0 wait").type, ActionType::Wait);
  EXPECT_EQ(parse_line("p0 waitall").type, ActionType::WaitAll);
  EXPECT_EQ(parse_line("p0 barrier").type, ActionType::Barrier);
  EXPECT_EQ(parse_line("p0 bcast 4096").type, ActionType::Bcast);
  EXPECT_EQ(parse_line("p0 bcast 4096 p2").partner, 2);
  EXPECT_EQ(parse_line("p0 reduce 4096 977536").type, ActionType::Reduce);
  EXPECT_EQ(parse_line("p0 allreduce 4096 977536").type, ActionType::AllReduce);
  EXPECT_DOUBLE_EQ(parse_line("p0 allreduce 4096 977536").volume2, 977536.0);
  EXPECT_EQ(parse_line("p0 alltoall 100 200").type, ActionType::AllToAll);
  EXPECT_EQ(parse_line("p0 allgather 100 200").type, ActionType::AllGather);
  EXPECT_EQ(parse_line("p0 gather 100").type, ActionType::Gather);
  EXPECT_EQ(parse_line("p0 scatter 100 p1").type, ActionType::Scatter);
}

TEST(TitParse, MalformedLinesThrow) {
  EXPECT_THROW(parse_line("p0"), ParseError);
  EXPECT_THROW(parse_line("p0 frobnicate 12"), ParseError);
  EXPECT_THROW(parse_line("p0 compute"), ParseError);
  EXPECT_THROW(parse_line("p0 compute -5"), ParseError);
  EXPECT_THROW(parse_line("p0 send p1"), ParseError);
  EXPECT_THROW(parse_line("p0 send p1 10 extra"), ParseError);
  EXPECT_THROW(parse_line("px compute 10"), ParseError);
}

TEST(TitParse, NonFiniteVolumesRejected) {
  // strtod-style parsers happily produce nan/inf; a trace volume never may.
  EXPECT_THROW(parse_line("p0 compute nan"), ParseError);
  EXPECT_THROW(parse_line("p0 compute -nan"), ParseError);
  EXPECT_THROW(parse_line("p0 compute inf"), ParseError);
  EXPECT_THROW(parse_line("p0 send p1 -inf"), ParseError);
  EXPECT_THROW(parse_line("p0 compute 1e999"), ParseError);  // overflows to inf
  EXPECT_THROW(parse_line("p0 allreduce 8 nan"), ParseError);
}

TEST(TitParse, NegativeAndOversizedRanksRejected) {
  EXPECT_THROW(parse_line("p-1 compute 5"), ParseError);
  EXPECT_THROW(parse_line("-1 compute 5"), ParseError);
  EXPECT_THROW(parse_line("p4294967296 compute 5"), ParseError);       // > int32
  EXPECT_THROW(parse_line("p0 send p99999999999 10"), ParseError);     // partner too
  EXPECT_THROW(parse_line("p0 send p-2 10"), ParseError);
}

// Action::proc has 24 bits: a rank at or above kMaxRanks must be refused,
// not wrapped (p16777216 would otherwise read back as rank 0).
TEST(TitParse, RanksFromMaxRanksUpAreRejected) {
  const Action top = parse_line("p8388607 send p8388607 10");
  EXPECT_EQ(top.proc, kMaxRanks - 1);
  EXPECT_EQ(top.partner, kMaxRanks - 1);
  for (const char* line : {"p8388608 compute 5", "p16777216 compute 5", "p2147483648 compute 5",
                           "p0 send p8388608 10", "p0 recv p16777216", "p0 bcast 8 p16777216"}) {
    EXPECT_THROW(parse_line(line), ParseError) << line;
  }
}

TEST(TitIo, SingleFileTraceWithAWrappingRankFailsToLoad) {
  namespace fs = std::filesystem;
  const fs::path dir = test::unique_temp_dir("tit_wrap");
  std::FILE* f = std::fopen((dir / "shared.tit").c_str(), "w");
  std::fputs("p0 compute 5\np16777216 compute 5\n", f);
  std::fclose(f);
  std::FILE* m = std::fopen((dir / "shared.manifest").c_str(), "w");
  std::fputs("shared.tit\n", m);
  std::fclose(m);
  EXPECT_THROW(load_trace((dir / "shared.manifest").string(), 2), ParseError);
  fs::remove_all(dir);
}

TEST(TitTrace, RankCountIsBoundedByMaxRanks) {
  EXPECT_THROW(Trace(kMaxRanks + 1), ConfigError);
  EXPECT_THROW(Trace(-1), ConfigError);
  EXPECT_EQ(Trace(0).nprocs(), 0);
}

// The packed layout keeps every field: the top rank, the widest partner and
// each action type survive a store and to_line.
TEST(TitAction, PackedFieldsHoldTheirRanges) {
  for (int t = 0; t <= static_cast<int>(ActionType::Scatter); ++t) {
    const auto type = static_cast<ActionType>(t);
    const Action a{type, kMaxRanks - 1, 2147483647, 12, 34};
    EXPECT_EQ(a.type, type);
    EXPECT_EQ(a.proc, kMaxRanks - 1);
    EXPECT_EQ(a.partner, 2147483647);
    EXPECT_EQ(to_line(a).rfind(std::string("p8388607 ") + action_name(type), 0), 0u);
  }
  EXPECT_EQ(to_line({ActionType::Send, kMaxRanks - 1, 2147483647, 1, 0}),
            "p8388607 send p2147483647 1");
}

// Token mutations of one line per verb: delete or duplicate a token, or
// swap one for an extreme number or a rank near the 24-bit limit.  Every
// mutant parses or throws ParseError, and a parsed rank is the one written.
TEST(TitParse, MutatedLinesParseOrThrowParseError) {
  const std::vector<std::string> lines = {
      "p0 init",           "p1 finalize",        "p2 compute 956140",  "p0 send p1 1240",
      "p1 isend p2 64",    "p3 irecv p0 64",     "p1 recv p0 1240",    "p1 recv p0",
      "p0 wait",           "p0 waitall",         "p2 barrier",         "p0 bcast 4096 p2",
      "p1 gather 100",     "p3 scatter 100 p1",  "p0 reduce 4096 977536 p1",
      "p1 allreduce 8 100", "p2 alltoall 100 200", "p3 allgather 100 200",
  };
  const std::vector<std::string> extremes = {
      "1e999", "-0", "nan", "0x1p30", "9223372036854775808", "1" + std::string(299, '7'),
  };
  const std::vector<std::string> ranks = {"p8388607", "p8388608", "p16777216", "p2147483648"};
  // The rank a "p<digits>" or "<digits>" token names, or -1 for any other
  // token (a value past 2^63 counts as past the limit too).
  const auto rank_of = [](std::string token) -> long long {
    if (!token.empty() && (token[0] == 'p' || token[0] == 'P')) token.erase(0, 1);
    unsigned long long v = 0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
    if (token.empty() || end != token.data() + token.size()) return -1;
    return ec == std::errc() && v < (1ull << 62) ? static_cast<long long>(v) : 1ll << 62;
  };

  constexpr int kMutants = 3000;
  int parsed = 0;
  for (int seed = 0; seed < kMutants; ++seed) {
    rng::Sequence draw(static_cast<std::uint64_t>(seed));
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(draw.next_u64() % n); };
    std::vector<std::string> t;
    std::istringstream words(lines[pick(lines.size())]);
    for (std::string w; words >> w;) t.push_back(w);
    const std::size_t at = pick(t.size());
    switch (seed % 4) {
      case 0:
        t.erase(t.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        t.insert(t.begin() + static_cast<std::ptrdiff_t>(at), t[at]);
        break;
      case 2:
        t[at] = extremes[pick(extremes.size())];
        break;
      default:
        t[at] = ranks[pick(ranks.size())];
        break;
    }
    std::string m;
    for (const std::string& w : t) m += (m.empty() ? "" : " ") + w;
    try {
      const Action a = parse_line(m);
      ++parsed;
      EXPECT_EQ(a.proc, rank_of(t[0])) << "mutant " << seed << ": " << m;
      for (const std::string& w : t) {
        if (w[0] != 'p') continue;  // unprefixed digits may be a volume
        EXPECT_LT(rank_of(w), static_cast<long long>(kMaxRanks)) << "mutant " << seed << ": " << m;
      }
    } catch (const ParseError&) {
      // The typed failure every damaged line may end in.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << seed << " threw " << e.what() << ": " << m;
    }
  }
  // The budget exercises both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(TitParse, MalformedInputErrorsCarryLineNumbers) {
  const char* cases[] = {
      "p0 compute 5\np0 send p1\n",      // truncated send
      "p0 compute 5\np0 compute nan\n",  // NaN volume
      "p0 compute 5\np-3 compute 1\n",   // negative rank
  };
  for (const char* text : cases) {
    try {
      parse_trace_string(text, 1);
      FAIL() << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(TitParse, CommentsAndBlankLinesIgnored) {
  const Trace t = parse_trace_string("# header\n\n  \np0 compute 5\n", 1);
  EXPECT_EQ(t.total_actions(), 1u);
}

TEST(TitParse, OutOfRangeRankRejected) {
  EXPECT_THROW(parse_trace_string("p5 compute 5\n", 2), ParseError);
}

TEST(TitParse, ParseErrorCarriesLineNumber) {
  try {
    parse_trace_string("p0 compute 5\np0 bogus\n", 1);
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TitStats, CountsVolumes) {
  const Trace t = parse_trace_string(
      "p0 init\n"
      "p0 compute 1000\n"
      "p0 send p1 70000\n"
      "p0 send p1 1240\n"
      "p0 allreduce 8 100\n"
      "p0 finalize\n"
      "p1 init\n"
      "p1 recv p0 70000\n"
      "p1 recv p0 1240\n"
      "p1 compute 500\n"
      "p1 allreduce 8 100\n"
      "p1 finalize\n",
      2);
  const TraceStats s = stats(t);
  EXPECT_EQ(s.actions, 12u);
  EXPECT_EQ(s.computes, 2u);
  EXPECT_EQ(s.p2p_messages, 2u);
  EXPECT_EQ(s.collectives, 2u);
  EXPECT_DOUBLE_EQ(s.compute_instructions, 1500.0);
  EXPECT_DOUBLE_EQ(s.p2p_bytes, 71240.0);
  EXPECT_DOUBLE_EQ(s.eager_messages, 1.0);  // only the 1240-byte one
}

TEST(TitIo, WriteAndLoadRoundTrip) {
  Trace t(2);
  t.push({ActionType::Init, 0, -1, 0, 0});
  t.push({ActionType::Compute, 0, -1, 956140, 0});
  t.push({ActionType::Send, 0, 1, 1240, 0});
  t.push({ActionType::Finalize, 0, -1, 0, 0});
  t.push({ActionType::Init, 1, -1, 0, 0});
  t.push({ActionType::Recv, 1, 0, 1240, 0});
  t.push({ActionType::Finalize, 1, -1, 0, 0});

  const std::string dir = test::unique_temp_dir("tit_roundtrip");
  const std::string manifest = write_trace(t, dir, "lu_test");
  const Trace back = load_trace(manifest);
  ASSERT_EQ(back.nprocs(), 2);
  EXPECT_EQ(back.actions(0), t.actions(0));
  EXPECT_EQ(back.actions(1), t.actions(1));
  std::filesystem::remove_all(dir);
}

// push_back growth would leave up to twice the bytes a cache charges.
TEST(TitIo, LoadedRanksHoldExactlyTheirActions) {
  std::string text;
  for (int i = 0; i < 17; ++i) text += "p0 compute 5\n";
  for (int i = 0; i < 5; ++i) text += "p1 compute 5\n";
  const Trace parsed = parse_trace_string(text, 2);
  const std::string dir = test::unique_temp_dir("tit_exact");
  const Trace loaded = load_trace(write_trace(parsed, dir, "exact"));
  for (const Trace* t : {&parsed, &loaded}) {
    EXPECT_EQ(t->actions(0).size(), 17u);
    EXPECT_EQ(t->actions(1).size(), 5u);
    for (int p = 0; p < 2; ++p) EXPECT_EQ(t->actions(p).capacity(), t->actions(p).size());
  }
  std::filesystem::remove_all(dir);
}

TEST(TitIo, SingleFileManifestNeedsProcessCount) {
  namespace fs = std::filesystem;
  const fs::path dir = test::unique_temp_dir("tit_shared");
  {
    std::FILE* f = std::fopen((dir / "shared.tit").c_str(), "w");
    std::fputs("p0 compute 10\np1 compute 20\n", f);
    std::fclose(f);
    std::FILE* m = std::fopen((dir / "shared.manifest").c_str(), "w");
    std::fputs("shared.tit\n", m);
    std::fclose(m);
  }
  EXPECT_THROW(load_trace((dir / "shared.manifest").string()), Error);
  const Trace t = load_trace((dir / "shared.manifest").string(), 2);
  EXPECT_DOUBLE_EQ(t.actions(1)[0].volume, 20.0);
  fs::remove_all(dir);
}

TEST(TitValidate, BalancedTracePasses) {
  const Trace t = parse_trace_string(
      "p0 send p1 10\n"
      "p1 recv p0 10\n",
      2);
  EXPECT_NO_THROW(validate(t));
}

TEST(TitValidate, UnbalancedTraceFails) {
  const Trace t = parse_trace_string("p0 send p1 10\n", 2);
  EXPECT_THROW(validate(t), Error);
}

TEST(TitValidate, SelfMessageFails) {
  Trace t(2);
  t.push({ActionType::Send, 0, 0, 10, 0});
  EXPECT_THROW(validate(t), Error);
}

TEST(TitValidate, ActionAfterFinalizeFails) {
  Trace t(1);
  t.push({ActionType::Finalize, 0, -1, 0, 0});
  t.push({ActionType::Compute, 0, -1, 5, 0});
  EXPECT_THROW(validate(t), Error);
}

TEST(TitValidate, IsendIrecvBalanceToo) {
  const Trace t = parse_trace_string(
      "p0 isend p1 10\n"
      "p0 wait\n"
      "p1 irecv p0 10\n"
      "p1 wait\n",
      2);
  EXPECT_NO_THROW(validate(t));
}

}  // namespace
}  // namespace tir::tit
