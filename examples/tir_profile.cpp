// tir-profile: replay a trace with the observability subsystem attached and
// write the full dynamic profile:
//
//   $ ./tir-profile [-np N] [-platform FILE] [-rate INSTR_PER_S]
//                   [-backend smpi|msg] [-contention] [-o BASENAME]
//                   TRACE_MANIFEST|TRACE.titb
//
// Outputs:
//   BASENAME.paje - per-rank state timeline in Paje format (open in ViTE)
//   BASENAME.json - metrics report: per-rank compute/comm/wait breakdown,
//                   eager vs. rendezvous traffic, collective time by type,
//                   link busy time/utilization, critical path, diagnostics
//
// BASENAME defaults to "tir-profile".  On a wedged replay (deadlock or
// watchdog) the profile is still written: the timeline ends at the wedge
// point and the JSON carries each blocked rank's wait-for diagnosis.
//
// Windowed mode (-from/-to, seconds of simulated time) profiles only that
// window: checkpoints stored in a TITB v2 trace (or recorded on the spot;
// -save-ckpt persists them back into the .titb) let the replay fork from
// the snapshot nearest -from instead of starting at action 0, and the
// printed window table plus the timeline are sliced to [from, to].
// Simulated time before the snapshot appears as idle in the .paje —
// it was skipped, not simulated.  Windowed mode requires the uncontended
// sharing model (no -contention).
#include <cstdio>
#include <string>

#include "base/error.hpp"
#include "base/units.hpp"
#include "ckpt/cursor.hpp"
#include "cli_args.hpp"
#include "core/replay.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/paje.hpp"
#include "obs/timeline.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"

namespace {

using namespace tir;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-np N] [-platform FILE] [-rate INSTR_PER_S]\n"
               "          [-backend smpi|msg] [-contention] [-o BASENAME]\n"
               "          [-from SECONDS -to SECONDS] [-save-ckpt]\n"
               "          TRACE_MANIFEST|TRACE.titb\n",
               argv0);
}

void print_rank_table(const obs::MetricsReport& report, const obs::CriticalPath& path) {
  std::printf("\nper-rank time breakdown (seconds of simulated time):\n");
  std::printf("%6s %10s %10s %10s %10s %10s  %s\n", "rank", "compute", "comm", "wait",
              "on-path", "slack", "bytes sent");
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const obs::RankMetrics& m = report.ranks[r];
    std::printf("%6zu %10.4f %10.4f %10.4f %10.4f %10.4f  %s\n", r, m.compute_seconds(),
                m.comm_seconds(), m.wait_seconds(), path.rank_path_seconds[r],
                path.rank_slack[r], units::format_bytes(m.bytes_sent).c_str());
  }
}

void print_collectives(const obs::MetricsReport& report) {
  if (report.collectives.empty()) return;
  std::printf("\ncollective time by type (rank-seconds, summed over ranks):\n");
  for (const obs::CollectiveMetrics& c : report.collectives) {
    std::printf("  %-10s %6llu call(s) %10.4f s  %s\n", c.op.c_str(),
                static_cast<unsigned long long>(c.sites), c.seconds,
                units::format_bytes(c.bytes).c_str());
  }
}

void print_links(const obs::MetricsReport& report) {
  if (report.links.empty()) return;
  // The per-host link pairs are numerous; show the busiest few.
  std::printf("\nbusiest links (busy time under the assigned sharing model):\n");
  std::size_t shown = 0;
  for (const obs::LinkMetrics& l : report.links) {
    if (shown == 5) {
      std::printf("  ... %zu more link(s) in the JSON report\n", report.links.size() - shown);
      break;
    }
    std::printf("  %-12s busy %8.4f s, %s, %5.1f%% utilized\n",
                l.name.empty() ? ("link" + std::to_string(l.link)).c_str() : l.name.c_str(),
                l.busy_seconds, units::format_bytes(l.bytes).c_str(), 100.0 * l.utilization);
    ++shown;
  }
}

void print_window_table(const std::vector<std::vector<obs::Interval>>& timelines, double from,
                        double to) {
  std::printf("\nwindow [%.6f, %.6f] s, state seconds per rank:\n", from, to);
  std::printf("%6s %10s %10s %10s %10s %10s %10s\n", "rank", "compute", "send", "recv", "wait",
              "collective", "idle");
  for (std::size_t r = 0; r < timelines.size(); ++r) {
    double by_state[6] = {0, 0, 0, 0, 0, 0};
    for (const obs::Interval& iv : timelines[r]) {
      by_state[static_cast<std::size_t>(iv.state)] += iv.duration();
    }
    std::printf("%6zu %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n", r, by_state[0], by_state[1],
                by_state[2], by_state[3], by_state[4], by_state[5]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli::JobFlags job;
  job.rates = {1e9};
  std::string trace_path;
  std::string out_base = "tir-profile";
  double from = -1.0;
  double to = -1.0;
  bool save_ckpt = false;

  cli::Args args(usage);
  job.declare_replay(args, /*rate_list=*/false);
  args.option({"-o"}, out_base);
  args.option({"-from", "--from"}, "a non-negative number of seconds",
              cli::number(from, cli::non_negative));
  args.option({"-to", "--to"}, "a non-negative number of seconds",
              cli::number(to, cli::non_negative));
  args.flag({"-save-ckpt", "--save-ckpt"}, save_ckpt);
  args.positional("TRACE", true, trace_path);
  if (!args.parse(argc, argv)) return cli::kUsageExit;
  const bool windowed = from >= 0.0 || to >= 0.0;
  if (windowed && (from < 0.0 || to < 0.0 || to <= from)) {
    return args.fail("-from and -to must be given together with from < to");
  }

  try {
    // Load through either trace form; the profile needs the rank count up
    // front to build the default platform.
    tit::Trace trace = titio::is_binary_trace(trace_path)
                           ? titio::read_binary_trace(trace_path)
                           : tit::load_trace(trace_path, job.np);
    const int nprocs = trace.nprocs();
    const std::size_t total_actions = trace.total_actions();
    const platform::Platform platform = job.make_platform(nprocs, "tir-profile");

    obs::TimelineSink timeline;
    core::ReplayConfig cfg = core::replay_config(job.scenarios("").front(), 0.0);
    cfg.sink = &timeline;

    core::ReplayResult result;
    std::string failure;
    std::string window_note;
    std::vector<std::vector<obs::Interval>> window_timelines;
    if (windowed) {
      // Windowed mode: fork the replay from the checkpoint nearest -from.
      // A TITB v2 trace may already carry checkpoints for this scenario
      // (adopt_file validates prefix hashes); otherwise record them now.
      const bool is_titb = titio::is_binary_trace(trace_path);
      ckpt::ReplayCursor cursor(titio::SharedTrace(std::move(trace)), platform, cfg,
                                job.backend);  // the cursor ignores cfg.sink
      const std::size_t adopted = is_titb ? cursor.adopt_file(trace_path) : 0;
      if (adopted == 0) {
        cursor.record();
        if (save_ckpt) {
          if (!is_titb) {
            std::fprintf(stderr, "[tir-profile] -save-ckpt ignored: %s is not a .titb file\n",
                         trace_path.c_str());
          } else if (!cursor.save(trace_path)) {
            std::fprintf(stderr,
                         "[tir-profile] -save-ckpt: no checkpoint recorded (trace shorter than "
                         "one cut interval); %s left unchanged\n",
                         trace_path.c_str());
          }
        }
      }
      cursor.seek(from);
      window_note = std::to_string(cursor.checkpoints().checkpoints.size()) +
                    " checkpoint(s) " + (adopted != 0 ? "adopted" : "recorded") +
                    ", snapshot at " + std::to_string(cursor.position()) + " s";
      try {
        result = cursor.run(to, &timeline);
      } catch (const SimError& e) {
        failure = e.what();
      }
      window_timelines.resize(static_cast<std::size_t>(nprocs));
      for (int r = 0; r < nprocs && r < timeline.nranks(); ++r) {
        window_timelines[static_cast<std::size_t>(r)] = obs::slice(timeline.intervals(r), from, to);
      }
    } else {
      try {
        result = core::replay(job.backend, trace, platform, cfg);
      } catch (const SimError& e) {
        // Wedged replay: the timeline up to the wedge point plus the per-rank
        // diagnosis is exactly what the profile is for.  Finish the profile,
        // then report the failure through the exit status.
        failure = e.what();
      }
    }

    const obs::MetricsReport report =
        obs::aggregate(timeline, cfg.mpi.eager_threshold, &platform);
    const obs::CriticalPath path = obs::critical_path(timeline);

    obs::write_paje(timeline, out_base + ".paje");
    obs::write_json(report, out_base + ".json");

    std::printf("trace            : %s (%d processes, %zu actions)\n", trace_path.c_str(),
                nprocs, total_actions);
    std::printf("backend          : %s\n", job.describe().c_str());
    if (windowed) {
      std::printf("window           : [%.6f, %.6f] s (%s)\n", from, to, window_note.c_str());
    }
    if (failure.empty()) {
      std::printf("simulated time   : %.6f s\n", report.simulated_time);
      std::printf("replay wall-clock: %.3f s\n", result.wall_clock_seconds);
      std::printf("critical path    : %.6f s busy of %.6f s elapsed (%.1f%% serialized)\n",
                  path.busy_seconds, path.simulated_time,
                  path.simulated_time > 0 ? 100.0 * path.busy_seconds / path.simulated_time
                                          : 0.0);
    } else {
      std::printf("replay WEDGED at : %.6f s simulated (%zu diagnosis line(s) in JSON)\n",
                  report.simulated_time, report.diagnoses.size());
    }
    print_rank_table(report, path);
    if (windowed) print_window_table(window_timelines, from, to);
    print_collectives(report);
    print_links(report);
    std::printf("\ntimeline -> %s.paje (open with ViTE)\nmetrics  -> %s.json\n",
                out_base.c_str(), out_base.c_str());
    if (!failure.empty()) {
      std::fprintf(stderr, "tir-profile: replay failed: %s\n", failure.c_str());
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "tir-profile: %s\n", e.what());
    return 1;
  }
}
