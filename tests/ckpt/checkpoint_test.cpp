// The checkpoint subsystem's correctness bar is bitwise: a replay resumed
// from a consistent-cut snapshot must be indistinguishable from the cold
// replay it forked from — simulated times and windowed timelines — on BOTH
// back-ends.  Plus the persistence layer (TITB v2 checkpoint records,
// backward-compatible v1 reads, corruption degradation), fingerprint
// discrimination and prefix-hash-validated adoption after a tail append.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "base/binio.hpp"
#include "base/error.hpp"
#include "ckpt/cursor.hpp"
#include "obs/timeline.hpp"
#include "platform/clusters.hpp"
#include "platform/parse.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/ckpt_records.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

namespace tir::ckpt {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return test::unique_temp_path("ckpt_" + name, ".titb");
}

platform::Platform cluster(int n) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  return p;
}

tit::Trace cg(int nprocs = 4, int iterations = 30) {
  apps::CgConfig cfg;
  cfg.nprocs = nprocs;
  cfg.iterations = iterations;
  return apps::cg_trace(cfg);
}

core::ReplayConfig base_config(obs::Sink* sink = nullptr) {
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.sink = sink;
  return cfg;
}

void expect_same_intervals(const std::vector<obs::Interval>& a,
                           const std::vector<obs::Interval>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::string at = label + " interval " + std::to_string(k);
    EXPECT_EQ(a[k].state, b[k].state) << at;
    EXPECT_EQ(a[k].begin, b[k].begin) << at;
    EXPECT_EQ(a[k].end, b[k].end) << at;
    EXPECT_EQ(a[k].bytes, b[k].bytes) << at;
    EXPECT_EQ(a[k].bytes2, b[k].bytes2) << at;
    EXPECT_EQ(a[k].partner, b[k].partner) << at;
    EXPECT_EQ(a[k].site, b[k].site) << at;
  }
}

/// Two partner pairs ping-pong for `rounds` rounds; every round boundary is
/// a consistent cut.  `rounds` extension keeps earlier rounds a per-rank
/// prefix — the tail-append shape.
tit::Trace pingpong(int rounds, double early_volume = 4096.0) {
  std::string text;
  for (int k = 0; k < rounds; ++k) {
    const double v = k == 0 ? early_volume : 8192.0;
    text += "p0 compute 1e7\np0 send p1 " + std::to_string(v) + "\np0 recv p1 4096\n";
    text += "p1 compute 2e7\np1 recv p0 " + std::to_string(v) + "\np1 send p0 4096\n";
    text += "p2 compute 1.5e7\np2 send p3 8192\np2 recv p3 8192\n";
    text += "p3 compute 1e7\np3 recv p2 8192\np3 send p2 8192\n";
  }
  return tit::parse_trace_string(text, 4);
}

// --- the differential suite ------------------------------------------------

class CkptDifferential : public ::testing::TestWithParam<core::Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, CkptDifferential,
                         ::testing::Values(core::Backend::Smpi, core::Backend::Msg),
                         [](const auto& info) {
                           return info.param == core::Backend::Smpi ? "smpi" : "msg";
                         });

// Seek to EVERY recorded checkpoint and replay to the end: simulated time
// and the post-cut timeline must be bitwise identical to the cold replay.
TEST_P(CkptDifferential, SeekThenReplayMatchesColdAtEveryCheckpoint) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace trace(cg());

  obs::TimelineSink cold_sink;
  titio::SharedTrace::Cursor cold_source = trace.cursor();
  const core::ReplayResult cold =
      core::replay(GetParam(), cold_source, p, base_config(&cold_sink));
  const double horizon = cold.simulated_time;

  ReplayCursor cursor(trace, p, base_config(), GetParam());
  const core::ReplayResult recorded = cursor.record(32);
  EXPECT_EQ(recorded.simulated_time, cold.simulated_time);
  ASSERT_GE(cursor.checkpoints().checkpoints.size(), 3u)
      << "trace too small to exercise seeking";

  for (const TraceCheckpoint& c : cursor.checkpoints().checkpoints) {
    cursor.seek(c.time);
    ASSERT_EQ(cursor.position(), c.time);
    obs::TimelineSink warm_sink;
    const core::ReplayResult warm =
        cursor.run(std::numeric_limits<double>::infinity(), &warm_sink);
    EXPECT_EQ(warm.simulated_time, cold.simulated_time) << "cut at " << c.time;
    ASSERT_EQ(warm_sink.nranks(), cold_sink.nranks());
    for (int r = 0; r < cold_sink.nranks(); ++r) {
      expect_same_intervals(obs::slice(cold_sink.intervals(r), c.time, horizon),
                            obs::slice(warm_sink.intervals(r), c.time, horizon),
                            "cut " + std::to_string(c.time) + " rank " + std::to_string(r));
    }
  }
}

// query(from, to) must equal slicing the COLD replay's full timeline.
TEST_P(CkptDifferential, QueryMatchesColdSlice) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace trace(cg());

  obs::TimelineSink cold_sink;
  titio::SharedTrace::Cursor cold_source = trace.cursor();
  const core::ReplayResult cold =
      core::replay(GetParam(), cold_source, p, base_config(&cold_sink));
  const double T = cold.simulated_time;

  ReplayCursor cursor(trace, p, base_config(), GetParam());
  cursor.record(32);

  const double windows[][2] = {{0.0, T / 4}, {T / 3, T / 2}, {0.6 * T, 0.9 * T}, {0.95 * T, T}};
  for (const auto& w : windows) {
    const QueryResult q = cursor.query(w[0], w[1]);
    ASSERT_EQ(static_cast<int>(q.timelines.size()), trace.nprocs());
    for (int r = 0; r < trace.nprocs(); ++r) {
      expect_same_intervals(obs::slice(cold_sink.intervals(r), w[0], w[1]),
                            q.timelines[static_cast<std::size_t>(r)],
                            "window [" + std::to_string(w[0]) + ", " + std::to_string(w[1]) +
                                ") rank " + std::to_string(r));
    }
  }
}

// The cursor is re-entrant: the same query twice in a row (and after an
// intervening different query, or a refused inverted one) gives identical
// answers.
TEST_P(CkptDifferential, RepeatedQueriesAreDeterministic) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace trace(cg());
  ReplayCursor cursor(trace, p, base_config(), GetParam());
  const double T = cursor.record(64).simulated_time;

  const QueryResult a = cursor.query(T / 2, 0.75 * T);
  cursor.query(0.0, T / 8);  // unrelated query in between
  const QueryResult b = cursor.query(T / 2, 0.75 * T);
  EXPECT_THROW(cursor.query(0.75 * T, T / 2), ConfigError) << "inverted window";
  ASSERT_EQ(a.timelines.size(), b.timelines.size());
  EXPECT_EQ(a.result.simulated_time, b.result.simulated_time);
  for (std::size_t r = 0; r < a.timelines.size(); ++r) {
    expect_same_intervals(a.timelines[r], b.timelines[r], "rank " + std::to_string(r));
  }
}

// --- cut metadata & fingerprints -------------------------------------------

TEST(CkptSet, NearestBeforePicksLatestQualifyingSnapshot) {
  CheckpointBlock block;
  for (const double t : {1.0, 2.0, 3.0}) {
    TraceCheckpoint c;
    c.time = t;
    block.checkpoints.push_back(c);
  }
  EXPECT_EQ(nearest_before(block, 0.5), nullptr);
  ASSERT_NE(nearest_before(block, 1.0), nullptr);
  EXPECT_EQ(nearest_before(block, 1.0)->time, 1.0);
  EXPECT_EQ(nearest_before(block, 2.9)->time, 2.0);
  EXPECT_EQ(nearest_before(block, 100.0)->time, 3.0);
  EXPECT_EQ(nearest_before(CheckpointBlock{}, 1.0), nullptr);
}

TEST(CkptFingerprint, DiscriminatesTimeShapingKnobsOnly) {
  const platform::Platform p4 = cluster(4);
  const platform::Platform p8 = cluster(8);
  const core::ReplayConfig base = base_config();
  const std::uint64_t fp = scenario_fingerprint(core::Backend::Smpi, p4, base);

  core::ReplayConfig faster = base;
  faster.rates = {2e9};
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, p4, faster), fp);

  core::ReplayConfig contended = base;
  contended.sharing = sim::Sharing::MaxMin;
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, p4, contended), fp);

  core::ReplayConfig eager = base;
  eager.mpi.eager_threshold = 1024.0;
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, p4, eager), fp);

  EXPECT_NE(scenario_fingerprint(core::Backend::Msg, p4, base), fp);
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, p8, base), fp);

  // Observation/limit knobs cannot change simulated times: same fingerprint.
  core::ReplayConfig observed = base;
  obs::TimelineSink sink;
  observed.sink = &sink;
  observed.stop_time = 5.0;
  EXPECT_EQ(scenario_fingerprint(core::Backend::Smpi, p4, observed), fp);
}

TEST(CkptSeekable, GatesContentionAndOversubscription) {
  const platform::Platform p4 = cluster(4);
  const platform::Platform p2 = cluster(2);
  core::ReplayConfig cfg = base_config();
  EXPECT_NO_THROW(check_seekable(4, p4, cfg));
  EXPECT_THROW(check_seekable(4, p2, cfg), ConfigError);
  cfg.sharing = sim::Sharing::MaxMin;
  EXPECT_THROW(check_seekable(4, p4, cfg), ConfigError);

  // record() applies the same gate.
  const titio::SharedTrace trace(cg());
  ReplayCursor cursor(trace, p4, cfg, core::Backend::Smpi);
  EXPECT_THROW(cursor.record(), ConfigError);
}

// --- TITB v2 persistence ---------------------------------------------------

titio::CheckpointBlock synthetic_block(std::uint64_t fingerprint, std::size_t count) {
  titio::CheckpointBlock b;
  b.fingerprint = fingerprint;
  b.nprocs = 2;
  for (std::size_t i = 0; i < count; ++i) {
    titio::TraceCheckpoint c;
    c.time = 1.5 * static_cast<double>(i + 1);
    for (int r = 0; r < 2; ++r) {
      titio::CkptRankState st;
      st.position = 10 * (i + 1) + static_cast<std::uint64_t>(r);
      st.time = c.time - 0.25 * r;
      st.collective_sites = i;
      st.prefix_hash = 0x1234u * (i + 1) + static_cast<std::uint64_t>(r);
      c.ranks.push_back(st);
    }
    b.checkpoints.push_back(std::move(c));
  }
  return b;
}

TEST(CkptRecords, AppendReadRoundTripAndMergeByFingerprint) {
  const fs::path path = temp_file("roundtrip");
  titio::write_binary_trace(pingpong(4), path.string(), titio::WriterOptions{64});

  titio::append_checkpoints(path.string(), {synthetic_block(0xAAAA, 2)});
  std::vector<titio::CheckpointBlock> blocks = titio::read_checkpoints(path.string());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].fingerprint, 0xAAAAu);
  ASSERT_EQ(blocks[0].checkpoints.size(), 2u);
  EXPECT_EQ(blocks[0].checkpoints[1].ranks[1].position, 21u);
  EXPECT_EQ(blocks[0].checkpoints[1].ranks[1].prefix_hash, 0x1234u * 2 + 1);

  // Same fingerprint replaces, a new fingerprint appends.
  titio::append_checkpoints(path.string(), {synthetic_block(0xAAAA, 1)});
  titio::append_checkpoints(path.string(), {synthetic_block(0xBBBB, 3)});
  blocks = titio::read_checkpoints(path.string());
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].checkpoints.size(), 1u);
  EXPECT_EQ(blocks[1].fingerprint, 0xBBBBu);
  EXPECT_EQ(blocks[1].checkpoints.size(), 3u);

  // The appended records do not disturb the action stream.
  const tit::Trace reread = titio::read_binary_trace(path.string());
  EXPECT_EQ(reread.total_actions(), pingpong(4).total_actions());
  fs::remove(path);
}

TEST(CkptRecords, ContentHashIsInvariantUnderCheckpointAppend) {
  const fs::path path = temp_file("hash");
  titio::write_binary_trace(pingpong(6), path.string(), titio::WriterOptions{64});
  const std::uint64_t before = titio::Reader(path.string()).content_hash();
  titio::append_checkpoints(path.string(), {synthetic_block(0xCAFE, 2)});
  EXPECT_EQ(titio::Reader(path.string()).content_hash(), before)
      << "the service cache key must not depend on checkpoint records";
  fs::remove(path);
}

TEST(CkptRecords, V1FilesStayReadableAndCarryNoCheckpoints) {
  const fs::path path = temp_file("v1");
  const tit::Trace trace = pingpong(5);
  titio::WriterOptions v1;
  v1.frame_actions = 64;
  v1.version = titio::kVersionV1;
  titio::write_binary_trace(trace, path.string(), v1);

  titio::Reader reader(path.string());
  EXPECT_EQ(reader.version(), titio::kVersionV1);
  EXPECT_EQ(reader.ckpt_offset(), 0u);
  EXPECT_TRUE(titio::read_checkpoints(path.string()).empty());
  const tit::Trace reread = titio::read_binary_trace(path.string());
  ASSERT_EQ(reread.nprocs(), trace.nprocs());
  for (int r = 0; r < trace.nprocs(); ++r) {
    EXPECT_EQ(reread.actions(r).size(), trace.actions(r).size()) << "rank " << r;
  }

  // Appending upgrades the file to v2 in place; actions are untouched.
  titio::append_checkpoints(path.string(), {synthetic_block(0xD00D, 1)});
  EXPECT_EQ(titio::Reader(path.string()).version(), titio::kVersion);
  EXPECT_EQ(titio::read_checkpoints(path.string()).size(), 1u);
  EXPECT_EQ(titio::read_binary_trace(path.string()).total_actions(), trace.total_actions());
  fs::remove(path);
}

TEST(CkptRecords, CorruptCheckpointFrameDegradesToEmptyNotFatal) {
  const fs::path path = temp_file("corrupt");
  titio::write_binary_trace(pingpong(5), path.string(), titio::WriterOptions{64});
  titio::append_checkpoints(path.string(), {synthetic_block(0xBEEF, 2)});
  const std::uint64_t off = titio::Reader(path.string()).ckpt_offset();
  ASSERT_NE(off, 0u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(off) + 9);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(off) + 9);
    f.write(&byte, 1);
  }
  // The trace itself still loads; only the checkpoint payload is refused.
  EXPECT_EQ(titio::read_binary_trace(path.string()).total_actions(),
            pingpong(5).total_actions());
  EXPECT_TRUE(titio::read_checkpoints(path.string()).empty());
  fs::remove(path);
}

/// Rewrite the trace at `path`, written without checkpoints, so that
/// `frame` sits between its last action frame and its index where a
/// checkpoint frame goes, and the v2 footer points at both.
void splice_checkpoint_frame(const fs::path& path, const std::vector<std::uint8_t>& frame) {
  std::uint64_t index_offset = 0;
  std::uint64_t total_actions = 0;
  {
    const titio::Reader reader(path.string());
    ASSERT_EQ(reader.ckpt_offset(), 0u);
    index_offset = reader.index_offset();
    total_actions = reader.total_actions();
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  in.close();
  const auto index_at = bytes.begin() + static_cast<std::ptrdiff_t>(index_offset);
  std::vector<std::uint8_t> out(bytes.begin(), index_at);
  out.insert(out.end(), frame.begin(), frame.end());
  const std::uint64_t new_index_offset = out.size();
  out.insert(out.end(), index_at, bytes.end() - titio::kFooterBytesV2);
  binio::put_u64(out, new_index_offset);
  binio::put_u64(out, index_offset);  // the checkpoint frame's offset
  binio::put_u64(out, total_actions);
  binio::put_u32(out, titio::kEndMagic);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(out.data()), static_cast<std::streamsize>(out.size()));
}

TEST(CkptRecords, WrappedCheckpointSizeDegradesToNone) {
  const fs::path path = temp_file("wrapped");
  titio::write_binary_trace(pingpong(5), path.string(), titio::WriterOptions{64});
  const std::uint64_t ckpt_offset = titio::Reader(path.string()).index_offset();
  // A 13-byte preamble whose size makes offset + preamble + size + CRC
  // wrap to 1, then four bytes of "payload".
  std::vector<std::uint8_t> frame = {titio::kCheckpointFrame, 1, 1};
  binio::put_varint(frame, 0 - ckpt_offset - 13 - 3);
  ASSERT_EQ(frame.size(), 13u);
  binio::put_u32(frame, 0);
  splice_checkpoint_frame(path, frame);

  EXPECT_TRUE(titio::read_checkpoints(path.string()).empty());
  EXPECT_EQ(titio::read_binary_trace(path.string()).total_actions(),
            pingpong(5).total_actions());
  fs::remove(path);
}

TEST(CkptRecords, CountsThePayloadCannotHoldAreParseErrors) {
  // A block header (fingerprint, nprocs, checkpoint count) and one
  // checkpoint's worth of bytes for two ranks.
  const auto payload = [](std::uint64_t nprocs, std::uint64_t count) {
    std::vector<std::uint8_t> p;
    binio::put_varint(p, 1);  // payload version
    binio::put_u64(p, 0xF00D);
    binio::put_varint(p, nprocs);
    binio::put_varint(p, count);
    p.resize(p.size() + 8 + 2 * 18, 0);
    return p;
  };
  EXPECT_EQ(titio::decode_checkpoint_payload(payload(2, 1)).size(), 1u);
  EXPECT_THROW(titio::decode_checkpoint_payload(payload(2, 2)), ParseError);
  // 2^62 checkpoints used to reach reserve() and throw std::length_error;
  // 2^31 - 1 ranks would ask for that many rank states per checkpoint.
  EXPECT_THROW(titio::decode_checkpoint_payload(payload(2, std::uint64_t{1} << 62)), ParseError);
  EXPECT_THROW(titio::decode_checkpoint_payload(payload(0x7FFFFFFF, 1)), ParseError);

  // Ranks are stored in 24 bits: a block of 2^23 + 1 ranks is refused even
  // with no checkpoint to size.
  std::vector<std::uint8_t> wide;
  binio::put_varint(wide, 1);
  binio::put_u64(wide, 0xF00D);
  binio::put_varint(wide, static_cast<std::uint64_t>(tit::kMaxRanks) + 1);
  binio::put_varint(wide, 0);
  EXPECT_THROW(titio::decode_checkpoint_payload(wide), ParseError);

  // Inside a file, an undecodable payload degrades to no checkpoints.
  const fs::path path = temp_file("counts");
  titio::write_binary_trace(pingpong(5), path.string(), titio::WriterOptions{64});
  std::vector<std::uint8_t> frame;
  titio::put_frame(frame, titio::kCheckpointFrame, 1, 1, payload(2, std::uint64_t{1} << 62));
  splice_checkpoint_frame(path, frame);
  EXPECT_TRUE(titio::read_checkpoints(path.string()).empty());
  EXPECT_EQ(titio::read_binary_trace(path.string()).total_actions(),
            pingpong(5).total_actions());
  fs::remove(path);
}

// --- adoption after a tail append ------------------------------------------

TEST(CkptAdopt, TailAppendedTraceAdoptsOldCheckpoints) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace short_trace(pingpong(20));
  const titio::SharedTrace long_trace(pingpong(40));  // first 20 rounds identical

  ReplayCursor short_cursor(short_trace, p, base_config(), core::Backend::Smpi);
  short_cursor.record(24);
  const std::size_t recorded = short_cursor.checkpoints().checkpoints.size();
  ASSERT_GE(recorded, 2u);

  ReplayCursor long_cursor(long_trace, p, base_config(), core::Backend::Smpi);
  EXPECT_EQ(long_cursor.adopt(short_cursor.checkpoints()), recorded)
      << "every pre-append checkpoint has a valid prefix hash in the longer trace";

  // Forking the LONGER replay from a pre-append snapshot is still exact.
  obs::TimelineSink cold_sink;
  titio::SharedTrace::Cursor cold_source = long_trace.cursor();
  const core::ReplayResult cold =
      core::replay(core::Backend::Smpi, cold_source, p, base_config(&cold_sink));
  const TraceCheckpoint& last = long_cursor.checkpoints().checkpoints.back();
  long_cursor.seek(last.time);
  obs::TimelineSink warm_sink;
  const core::ReplayResult warm =
      long_cursor.run(std::numeric_limits<double>::infinity(), &warm_sink);
  EXPECT_EQ(warm.simulated_time, cold.simulated_time);
  for (int r = 0; r < cold_sink.nranks(); ++r) {
    expect_same_intervals(obs::slice(cold_sink.intervals(r), last.time, cold.simulated_time),
                          obs::slice(warm_sink.intervals(r), last.time, cold.simulated_time),
                          "rank " + std::to_string(r));
  }
}

TEST(CkptAdopt, EditedPrefixDropsStaleCheckpoints) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace original(pingpong(20));
  const titio::SharedTrace edited(pingpong(20, /*early_volume=*/9999.0));

  ReplayCursor recorder(original, p, base_config(), core::Backend::Smpi);
  recorder.record(24);
  ASSERT_GE(recorder.checkpoints().checkpoints.size(), 1u);

  ReplayCursor victim(edited, p, base_config(), core::Backend::Smpi);
  EXPECT_EQ(victim.adopt(recorder.checkpoints()), 0u)
      << "an edit inside round 0 invalidates every downstream prefix hash";
}

TEST(CkptAdopt, FingerprintMismatchIsRefusedOutright) {
  const platform::Platform p = cluster(4);
  const titio::SharedTrace trace(pingpong(10));
  ReplayCursor recorder(trace, p, base_config(), core::Backend::Smpi);
  recorder.record(16);

  core::ReplayConfig other = base_config();
  other.rates = {3e9};
  ReplayCursor mismatched(trace, p, other, core::Backend::Smpi);
  EXPECT_THROW(mismatched.adopt(recorder.checkpoints()), ConfigError);
}

// Two platforms with the same hosts and links, but with h1 and h2 swapped
// between the two switches, route h0<->h1 and h2<->h3 differently, so a cut
// recorded on one predicts wrong times on the other.  So do a different
// switch parent and a different explicit route.
TEST(CkptFingerprint, CoversTopology) {
  const auto platform_text = [](const char* h1_switch, const char* h2_switch,
                                const char* s2_parent, const char* route) {
    return std::string("switch root\n"
                       "switch s1 parent=root bw=10Gbps lat=2us\n"
                       "switch s2 parent=") +
           s2_parent + " bw=1Gbps lat=20us\n" +
           "host h0 switch=s1 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=40us\n"
           "host h1 switch=" + h1_switch + " cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=40us\n" +
           "host h2 switch=" + h2_switch + " cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=40us\n" +
           "host h3 switch=s2 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=40us\n"
           "link l0 bw=10Gbps lat=1us\n"
           "route " + route + " links=l0\n";
  };
  const platform::Platform a =
      platform::parse_platform_string(platform_text("s1", "s2", "root", "h0 h1"));
  const platform::Platform swapped =
      platform::parse_platform_string(platform_text("s2", "s1", "root", "h0 h1"));
  const platform::Platform reparented =
      platform::parse_platform_string(platform_text("s1", "s2", "s1", "h0 h1"));
  const platform::Platform rerouted =
      platform::parse_platform_string(platform_text("s1", "s2", "root", "h0 h2"));
  const core::ReplayConfig cfg = base_config();
  const std::uint64_t fp = scenario_fingerprint(core::Backend::Smpi, a, cfg);
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, swapped, cfg), fp);
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, reparented, cfg), fp);
  EXPECT_NE(scenario_fingerprint(core::Backend::Smpi, rerouted, cfg), fp);
  EXPECT_EQ(scenario_fingerprint(core::Backend::Smpi,
                                 platform::parse_platform_string(
                                     platform_text("s1", "s2", "root", "h0 h1")),
                                 cfg),
            fp);

  const titio::SharedTrace trace(cg());
  ReplayCursor recorder(trace, a, cfg, core::Backend::Smpi);
  recorder.record(8);
  ASSERT_GE(recorder.checkpoints().checkpoints.size(), 1u);
  ReplayCursor other(trace, swapped, cfg, core::Backend::Smpi);
  EXPECT_THROW(other.adopt(recorder.checkpoints()), ConfigError);
}

TEST(CkptAdopt, SaveAndAdoptFileRoundTrip) {
  const platform::Platform p = cluster(4);
  const fs::path path = temp_file("savefile");
  titio::write_binary_trace(pingpong(20), path.string(), titio::WriterOptions{64});
  const titio::SharedTrace trace(titio::read_binary_trace(path.string()));

  ReplayCursor writer_cursor(trace, p, base_config(), core::Backend::Smpi);
  writer_cursor.record(24);
  const std::size_t recorded = writer_cursor.checkpoints().checkpoints.size();
  ASSERT_GE(recorded, 1u);
  writer_cursor.save(path.string());

  ReplayCursor reader_cursor(trace, p, base_config(), core::Backend::Smpi);
  EXPECT_EQ(reader_cursor.adopt_file(path.string()), recorded);
  EXPECT_EQ(reader_cursor.fingerprint(), writer_cursor.fingerprint());

  // A cursor for a DIFFERENT scenario finds no block to adopt.
  core::ReplayConfig other = base_config();
  other.rates = {7e8};
  ReplayCursor stranger(trace, p, other, core::Backend::Smpi);
  EXPECT_EQ(stranger.adopt_file(path.string()), 0u);
  fs::remove(path);
}

}  // namespace
}  // namespace tir::ckpt
