// trace_inspect: summarize a Time-Independent Trace.
//
//   $ ./trace_inspect trace.manifest [nprocs]     (text, via its manifest)
//   $ ./trace_inspect trace.titb                  (TITB binary, auto-detected)
//
// Prints the aggregate volumes, a per-rank breakdown and a message-size
// histogram with the 64 KiB eager threshold marked - the quantity the whole
// paper turns on (how much of the traffic rides the eager path decides how
// much the back-end choice matters).  Binary traces are streamed a frame at
// a time (never materialized) and every frame CRC is checked.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cli_args.hpp"
#include "base/units.hpp"
#include "tit/trace.hpp"
#include "tit/validate.hpp"
#include "titio/ckpt_records.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"

namespace {

using namespace tir;

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s TRACE_MANIFEST|TRACE.titb [NPROCS]\n", argv0);
}

/// One slot per tit::ActionType, in enum order (Init .. Scatter).
constexpr std::size_t kTypeCount = static_cast<std::size_t>(tit::ActionType::Scatter) + 1;

struct RankSummary {
  std::size_t actions = 0;
  std::size_t by_type[kTypeCount] = {};
  double instructions = 0.0;     ///< compute volume
  std::size_t messages = 0;      ///< send + isend
  double bytes_sent = 0.0;       ///< p2p payload
  double collective_bytes = 0.0; ///< collective payload contributed by this rank
};

struct Summary {
  tit::TraceStats total;
  std::vector<RankSummary> ranks;
  std::vector<std::size_t> histogram = std::vector<std::size_t>(28, 0);

  void add(const tit::Action& a) {
    tit::add_to_stats(total, a);
    RankSummary& r = ranks[static_cast<std::size_t>(a.proc)];
    ++r.actions;
    ++r.by_type[static_cast<std::size_t>(a.type)];
    if (a.type == tit::ActionType::Compute) r.instructions += a.volume;
    if (tit::is_collective(a.type)) r.collective_bytes += a.volume;
    if (a.type == tit::ActionType::Send || a.type == tit::ActionType::Isend) {
      ++r.messages;
      r.bytes_sent += a.volume;
      int bucket = 0;
      while ((1u << bucket) < a.volume && bucket < 27) ++bucket;
      ++histogram[static_cast<std::size_t>(bucket)];
    }
  }
};

void print_summary(const Summary& s) {
  std::printf("actions  : %zu (%zu computes, %zu p2p, %zu collectives)\n", s.total.actions,
              s.total.computes, s.total.p2p_messages, s.total.collectives);
  std::printf("compute  : %.3e instructions\n", s.total.compute_instructions);
  std::printf("traffic  : %s in p2p messages, %.1f%% of them eager (<64 KiB)\n",
              units::format_bytes(s.total.p2p_bytes).c_str(),
              s.total.p2p_messages > 0 ? 100.0 * s.total.eager_messages / s.total.p2p_messages
                                       : 0.0);

  std::printf("\nper-rank breakdown (compute volume, p2p payload, collective payload):\n");
  std::printf("%6s %10s %12s %10s %14s %14s\n", "rank", "actions", "instructions", "messages",
              "p2p bytes", "coll bytes");
  for (std::size_t r = 0; r < s.ranks.size(); ++r) {
    std::printf("%6zu %10zu %12.3e %10zu %14s %14s\n", r, s.ranks[r].actions,
                s.ranks[r].instructions, s.ranks[r].messages,
                units::format_bytes(s.ranks[r].bytes_sent).c_str(),
                units::format_bytes(s.ranks[r].collective_bytes).c_str());
  }

  // Per-rank action-type counts, one column per type actually present
  // (a trace rarely uses more than a handful of the 17 types).
  std::vector<std::size_t> present;
  for (std::size_t t = 0; t < kTypeCount; ++t) {
    for (const RankSummary& r : s.ranks) {
      if (r.by_type[t] > 0) {
        present.push_back(t);
        break;
      }
    }
  }
  std::printf("\nper-rank action-type counts:\n%6s", "rank");
  for (const std::size_t t : present) {
    std::printf(" %9s", tit::action_name(static_cast<tit::ActionType>(t)));
  }
  std::printf("\n");
  for (std::size_t r = 0; r < s.ranks.size(); ++r) {
    std::printf("%6zu", r);
    for (const std::size_t t : present) std::printf(" %9zu", s.ranks[r].by_type[t]);
    std::printf("\n");
  }

  const std::size_t peak = *std::max_element(s.histogram.begin(), s.histogram.end());
  if (peak > 0) {
    std::printf("\nmessage sizes (count per power-of-two bucket):\n");
    for (std::size_t b = 0; b < s.histogram.size(); ++b) {
      if (s.histogram[b] == 0) continue;
      const int bar = static_cast<int>(40.0 * s.histogram[b] / peak);
      std::printf("%10s |%-40.*s| %zu%s\n",
                  units::format_bytes(static_cast<double>(1u << b)).c_str(), bar,
                  "########################################", s.histogram[b],
                  (1u << b) >= 65536 ? "  [rendezvous]" : "");
    }
  }
}

int inspect_binary(const std::string& path) {
  titio::Reader reader(path);
  std::printf("trace    : %s (TITB v%u binary, %zu frames)\n", path.c_str(),
              static_cast<unsigned>(reader.version()), reader.frame_count());
  std::printf("processes: %d\n", reader.nprocs());
  // The service cache key (docs/service.md): frame CRCs folded in file order.
  std::printf("hash     : %016llx (titb frame-CRC content hash)\n",
              static_cast<unsigned long long>(reader.content_hash()));

  Summary s;
  s.ranks.resize(static_cast<std::size_t>(reader.nprocs()));
  tit::Action a;
  for (int r = 0; r < reader.nprocs(); ++r) {
    while (reader.next(r, a)) s.add(a);
  }
  print_summary(s);

  titio::Reader(path).verify();
  std::printf("\nintegrity: all %zu frame CRCs ok\n", reader.frame_count());

  // v2 files may carry checkpoint records (docs/trace_format.md): one block
  // per recorded scenario, each a sequence of consistent-cut snapshots.
  if (reader.ckpt_offset() != 0) {
    const std::vector<titio::CheckpointBlock> blocks = titio::read_checkpoints(path);
    std::printf("\ncheckpoint blocks (%zu scenario(s)):\n", blocks.size());
    for (const titio::CheckpointBlock& b : blocks) {
      std::printf("  scenario %016llx: %d rank(s), %zu checkpoint(s)",
                  static_cast<unsigned long long>(b.fingerprint), b.nprocs,
                  b.checkpoints.size());
      if (!b.checkpoints.empty()) {
        std::printf(" spanning [%.6f, %.6f] s", b.checkpoints.front().time,
                    b.checkpoints.back().time);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int inspect_text(const std::string& path, int np) {
  const tit::Trace trace = tit::load_trace(path, np);
  std::printf("trace    : %s\n", path.c_str());
  std::printf("processes: %d\n", trace.nprocs());
  std::printf("hash     : %016llx (decoded-action content hash)\n",
              static_cast<unsigned long long>(titio::hash_actions(trace)));

  Summary s;
  s.ranks.resize(static_cast<std::size_t>(trace.nprocs()));
  for (int r = 0; r < trace.nprocs(); ++r) {
    for (const tit::Action& a : trace.actions(r)) s.add(a);
  }
  print_summary(s);

  // Full report instead of throwing on the first problem: an inspector
  // should show everything it found, then signal failure via exit status.
  const tit::ValidationReport report = tit::validate_trace(trace);
  std::printf("\n%s", tit::to_string(report).c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int np = -1;
  cli::Args args(usage);
  args.positional("TRACE", true, path);
  args.positional("NPROCS", false, "a positive integer", cli::number(np, cli::positive));
  if (!args.parse(argc, argv)) return cli::kUsageExit;
  try {
    if (titio::is_binary_trace(path)) return inspect_binary(path);
    return inspect_text(path, np);
  } catch (const Error& e) {
    std::fprintf(stderr, "trace_inspect: %s\n", e.what());
    return 1;
  }
}
