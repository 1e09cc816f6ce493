// Trace containers, parsing, writing, validation and summary statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "tit/action.hpp"

namespace tir::tit {

/// An in-memory Time-Independent Trace: one action sequence per process.
class Trace {
 public:
  Trace() = default;
  /// Throws ConfigError unless 0 <= nprocs <= kMaxRanks.
  explicit Trace(int nprocs);

  int nprocs() const { return static_cast<int>(per_proc_.size()); }
  const std::vector<Action>& actions(int proc) const;
  std::vector<Action>& actions(int proc);

  /// Append, routing by a.proc. Throws if the rank is out of range.
  void push(const Action& a);

  std::size_t total_actions() const;

 private:
  std::vector<std::vector<Action>> per_proc_;
};

/// Aggregate volumes; what the trace says the run "weighs".
struct TraceStats {
  std::size_t actions = 0;
  std::size_t computes = 0;
  std::size_t p2p_messages = 0;   ///< send+isend actions
  std::size_t collectives = 0;
  double compute_instructions = 0.0;
  double p2p_bytes = 0.0;
  double eager_messages = 0.0;    ///< p2p messages strictly below 64 KiB
};

TraceStats stats(const Trace& trace);

/// Fold one action into running totals: the streaming-friendly building
/// block of stats(), usable without a materialized Trace.
void add_to_stats(TraceStats& s, const Action& a);

/// Parse one trace line. Ranks may be written "p3" or "3".
/// Throws ParseError with the offending text.
Action parse_line(std::string_view line);

/// The one text-trace line loop: hand every action of `in` to `emit`, in
/// line order, one action per line, '#' comments and blank lines skipped.
/// A line that does not parse, or that `emit` refuses with a tir::Error,
/// throws ParseError prefixed "<where><line number>: ".
void for_each_action(std::istream& in, const std::string& where,
                     const std::function<void(const Action&)>& emit);

/// Parse a whole trace from text: one action per line, '#' comments and
/// blank lines ignored. nprocs fixes the rank count (ranks must be < nprocs).
/// Each rank's vector holds exactly its actions (capacity() == size()), as
/// with load_trace.
Trace parse_trace(std::istream& in, int nprocs);
Trace parse_trace_string(const std::string& text, int nprocs);

/// Write one file per process ("<basename>_<rank>.tit") plus a manifest
/// ("<basename>.manifest") listing them, under `dir`. Returns manifest path.
std::string write_trace(const Trace& trace, const std::string& dir,
                        const std::string& basename);

/// Load a trace back through its manifest. A single-entry manifest means all
/// ranks share one file (paper §3.3); `nprocs` must then be given explicitly.
Trace load_trace(const std::string& manifest_path, int nprocs = -1);

/// Read a manifest: the listed trace file names (relative to the manifest's
/// directory), blank lines skipped. Throws on unreadable/empty manifests.
std::vector<std::string> read_manifest(const std::string& manifest_path);

/// A manifest resolved: its trace files and the rank count they hold.
struct Manifest {
  std::vector<std::string> files;  ///< as listed, relative to `dir`
  std::string dir;                 ///< the manifest's directory
  /// files.size() for one file per rank; for a single-file manifest (all
  /// ranks share it, paper §3.3) the count given, or 0 when none was.
  int nprocs = 0;
};

/// Read the manifest at `manifest_path` and settle its rank count; `nprocs`
/// sets it for a single-file manifest and, when > 0, must equal the file
/// count of any other.  Throws as read_manifest, and on that mismatch.
Manifest resolve_manifest(const std::string& manifest_path, int nprocs);

/// for_each_action over every file of `manifest`, in manifest order; error
/// lines are prefixed "<file>:<line number>: ".
void for_each_action(const Manifest& manifest, const std::function<void(const Action&)>& emit);

/// Fail-fast structural validation: every send has a matching recv (per
/// ordered pair), collective participation agrees, partners in range,
/// init/finalize discipline. Throws MalformedTraceError describing the
/// first problem. For the full structured report, see tit/validate.hpp.
void validate(const Trace& trace);

}  // namespace tir::tit
