#include "tit/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "base/error.hpp"
#include "base/string_util.hpp"
#include "tit/validate.hpp"

namespace tir::tit {

namespace {

/// 64 KiB: the MPI eager-mode threshold the paper keys its analysis on.
constexpr double kEagerThreshold = 65536.0;

std::int32_t parse_rank(std::string_view token, std::string_view line) {
  if (!token.empty() && (token.front() == 'p' || token.front() == 'P')) {
    token.remove_prefix(1);
  }
  // to_u64 rejects a leading '-', so negative ranks fail here with context.
  const auto value = str::to_u64(token, "rank in '" + std::string(line) + "'");
  if (value >= static_cast<std::uint64_t>(kMaxRanks)) {
    throw ParseError("rank " + std::string(token) + " out of range (limit " +
                     std::to_string(kMaxRanks) + " ranks) in '" + std::string(line) + "'");
  }
  return static_cast<std::int32_t>(value);
}

double parse_volume(std::string_view token, std::string_view line) {
  const double v = str::to_double(token, "volume in '" + std::string(line) + "'");
  // NaN fails both comparisons below on its own; check it explicitly so the
  // message names the actual problem.
  if (std::isnan(v)) throw ParseError("NaN volume in '" + std::string(line) + "'");
  if (v < 0.0) throw ParseError("negative volume in '" + std::string(line) + "'");
  if (!std::isfinite(v)) throw ParseError("non-finite volume in '" + std::string(line) + "'");
  return v;
}

void expect_tokens(const std::vector<std::string_view>& t, std::size_t lo, std::size_t hi,
                   std::string_view line) {
  if (t.size() < lo || t.size() > hi) {
    throw ParseError("wrong number of fields in '" + std::string(line) + "'");
  }
}

std::string format_volume(double v) {
  // Volumes are counts; print integers exactly, large/fractional compactly.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && v < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Trim every rank's vector to its size: push_back growth leaves up to twice
/// the bytes, and a cache charges a trace size() x sizeof(Action).
void fit(Trace& trace) {
  for (int p = 0; p < trace.nprocs(); ++p) trace.actions(p).shrink_to_fit();
}

}  // namespace

const char* action_name(ActionType t) {
  switch (t) {
    case ActionType::Init: return "init";
    case ActionType::Finalize: return "finalize";
    case ActionType::Compute: return "compute";
    case ActionType::Send: return "send";
    case ActionType::Isend: return "isend";
    case ActionType::Recv: return "recv";
    case ActionType::Irecv: return "irecv";
    case ActionType::Wait: return "wait";
    case ActionType::WaitAll: return "waitall";
    case ActionType::Barrier: return "barrier";
    case ActionType::Bcast: return "bcast";
    case ActionType::Reduce: return "reduce";
    case ActionType::AllReduce: return "allreduce";
    case ActionType::AllToAll: return "alltoall";
    case ActionType::AllGather: return "allgather";
    case ActionType::Gather: return "gather";
    case ActionType::Scatter: return "scatter";
  }
  return "?";
}

std::string to_line(const Action& a) {
  // Built with appends, not operator+ chains: one growing buffer instead of
  // a temporary per '+' (and GCC 12's -Wrestrict misfires on the inlined
  // SSO copy of such chains, which -Werror builds would trip over).
  std::string out;
  out += 'p';
  out += std::to_string(a.proc);
  out += ' ';
  out += action_name(a.type);
  const auto add_volume = [&out](double v) {
    out += ' ';
    out += format_volume(v);
  };
  const auto add_partner = [&out](std::int32_t partner) {
    out += " p";
    out += std::to_string(partner);
  };
  switch (a.type) {
    case ActionType::Init:
    case ActionType::Finalize:
    case ActionType::Wait:
    case ActionType::WaitAll:
    case ActionType::Barrier:
      break;
    case ActionType::Compute:
      add_volume(a.volume);
      break;
    case ActionType::Send:
    case ActionType::Isend:
    case ActionType::Irecv:
      add_partner(a.partner);
      add_volume(a.volume);
      break;
    case ActionType::Recv:
      add_partner(a.partner);
      if (a.volume != kNoVolume) add_volume(a.volume);
      break;
    case ActionType::Bcast:
    case ActionType::Gather:
    case ActionType::Scatter:
      add_volume(a.volume);
      if (a.partner >= 0) add_partner(a.partner);
      break;
    case ActionType::Reduce:
      add_volume(a.volume);
      add_volume(a.volume2);
      if (a.partner >= 0) add_partner(a.partner);
      break;
    case ActionType::AllReduce:
    case ActionType::AllToAll:
    case ActionType::AllGather:
      add_volume(a.volume);
      add_volume(a.volume2);
      break;
  }
  return out;
}

Action parse_line(std::string_view line) {
  const auto t = str::split_ws(line);
  if (t.size() < 2) throw ParseError("trace line too short: '" + std::string(line) + "'");
  Action a;
  a.proc = parse_rank(t[0], line);
  const std::string_view verb = t[1];

  if (verb == "init") {
    expect_tokens(t, 2, 2, line);
    a.type = ActionType::Init;
  } else if (verb == "finalize") {
    expect_tokens(t, 2, 2, line);
    a.type = ActionType::Finalize;
  } else if (verb == "compute") {
    expect_tokens(t, 3, 3, line);
    a.type = ActionType::Compute;
    a.volume = parse_volume(t[2], line);
  } else if (verb == "send" || verb == "isend" || verb == "irecv") {
    expect_tokens(t, 4, 4, line);
    a.type = verb == "send" ? ActionType::Send
                            : (verb == "isend" ? ActionType::Isend : ActionType::Irecv);
    a.partner = parse_rank(t[2], line);
    a.volume = parse_volume(t[3], line);
  } else if (verb == "recv") {
    // Old format: "p0 recv p1"; new format (paper §3.3): "p0 recv p1 1240".
    expect_tokens(t, 3, 4, line);
    a.type = ActionType::Recv;
    a.partner = parse_rank(t[2], line);
    a.volume = t.size() == 4 ? parse_volume(t[3], line) : kNoVolume;
  } else if (verb == "wait") {
    expect_tokens(t, 2, 2, line);
    a.type = ActionType::Wait;
  } else if (verb == "waitall") {
    expect_tokens(t, 2, 2, line);
    a.type = ActionType::WaitAll;
  } else if (verb == "barrier") {
    expect_tokens(t, 2, 2, line);
    a.type = ActionType::Barrier;
  } else if (verb == "bcast" || verb == "gather" || verb == "scatter") {
    expect_tokens(t, 3, 4, line);
    a.type = verb == "bcast" ? ActionType::Bcast
                             : (verb == "gather" ? ActionType::Gather : ActionType::Scatter);
    a.volume = parse_volume(t[2], line);
    a.partner = t.size() == 4 ? parse_rank(t[3], line) : 0;
  } else if (verb == "reduce") {
    expect_tokens(t, 4, 5, line);
    a.type = ActionType::Reduce;
    a.volume = parse_volume(t[2], line);
    a.volume2 = parse_volume(t[3], line);
    a.partner = t.size() == 5 ? parse_rank(t[4], line) : 0;
  } else if (verb == "allreduce") {
    expect_tokens(t, 4, 4, line);
    a.type = ActionType::AllReduce;
    a.volume = parse_volume(t[2], line);
    a.volume2 = parse_volume(t[3], line);
  } else if (verb == "alltoall" || verb == "allgather") {
    expect_tokens(t, 4, 4, line);
    a.type = verb == "alltoall" ? ActionType::AllToAll : ActionType::AllGather;
    a.volume = parse_volume(t[2], line);
    a.volume2 = parse_volume(t[3], line);
  } else {
    throw ParseError("unknown action '" + std::string(verb) + "' in '" + std::string(line) +
                     "'");
  }
  return a;
}

Trace::Trace(int nprocs) {
  if (nprocs < 0 || nprocs > kMaxRanks) {
    throw ConfigError("trace needs 0 to " + std::to_string(kMaxRanks) + " processes, got " +
                      std::to_string(nprocs));
  }
  per_proc_.resize(static_cast<std::size_t>(nprocs));
}

const std::vector<Action>& Trace::actions(int proc) const {
  TIR_ASSERT(proc >= 0 && proc < nprocs());
  return per_proc_[static_cast<std::size_t>(proc)];
}

std::vector<Action>& Trace::actions(int proc) {
  TIR_ASSERT(proc >= 0 && proc < nprocs());
  return per_proc_[static_cast<std::size_t>(proc)];
}

void Trace::push(const Action& a) {
  if (a.proc < 0 || a.proc >= nprocs()) {
    throw Error("action rank p" + std::to_string(a.proc) + " out of range (nprocs=" +
                std::to_string(nprocs()) + ")");
  }
  per_proc_[static_cast<std::size_t>(a.proc)].push_back(a);
}

std::size_t Trace::total_actions() const {
  std::size_t n = 0;
  for (const auto& v : per_proc_) n += v.size();
  return n;
}

void add_to_stats(TraceStats& s, const Action& a) {
  ++s.actions;
  switch (a.type) {
    case ActionType::Compute:
      ++s.computes;
      s.compute_instructions += a.volume;
      break;
    case ActionType::Send:
    case ActionType::Isend:
      ++s.p2p_messages;
      s.p2p_bytes += a.volume;
      if (a.volume < kEagerThreshold) s.eager_messages += 1.0;
      break;
    case ActionType::Barrier:
    case ActionType::Bcast:
    case ActionType::Reduce:
    case ActionType::AllReduce:
    case ActionType::AllToAll:
    case ActionType::AllGather:
    case ActionType::Gather:
    case ActionType::Scatter:
      ++s.collectives;
      break;
    default:
      break;
  }
}

TraceStats stats(const Trace& trace) {
  TraceStats s;
  for (int p = 0; p < trace.nprocs(); ++p) {
    for (const Action& a : trace.actions(p)) add_to_stats(s, a);
  }
  return s;
}

void for_each_action(std::istream& in, const std::string& where,
                     const std::function<void(const Action&)>& emit) {
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view text = str::trim(raw);
    if (text.empty() || text.front() == '#') continue;
    try {
      emit(parse_line(text));
    } catch (const Error& e) {
      throw ParseError(where + std::to_string(line_no) + ": " + e.what());
    }
  }
}

Trace parse_trace(std::istream& in, int nprocs) {
  Trace trace(nprocs);
  for_each_action(in, "line ", [&](const Action& a) { trace.push(a); });
  fit(trace);
  return trace;
}

Trace parse_trace_string(const std::string& text, int nprocs) {
  std::istringstream in(text);
  return parse_trace(in, nprocs);
}

std::string write_trace(const Trace& trace, const std::string& dir,
                        const std::string& basename) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string manifest_path = (fs::path(dir) / (basename + ".manifest")).string();
  std::ofstream manifest(manifest_path);
  if (!manifest) throw Error("cannot write manifest: " + manifest_path);
  for (int p = 0; p < trace.nprocs(); ++p) {
    const std::string fname = basename + "_" + std::to_string(p) + ".tit";
    const std::string path = (fs::path(dir) / fname).string();
    std::ofstream out(path);
    if (!out) throw Error("cannot write trace file: " + path);
    for (const Action& a : trace.actions(p)) out << to_line(a) << '\n';
    manifest << fname << '\n';
  }
  return manifest_path;
}

std::vector<std::string> read_manifest(const std::string& manifest_path) {
  std::ifstream manifest(manifest_path);
  if (!manifest) throw Error("cannot open manifest: " + manifest_path);
  std::vector<std::string> files;
  std::string line;
  while (std::getline(manifest, line)) {
    const auto trimmed = str::trim(line);
    if (!trimmed.empty()) files.emplace_back(trimmed);
  }
  if (files.empty()) throw Error("empty manifest: " + manifest_path);
  return files;
}

Manifest resolve_manifest(const std::string& manifest_path, int nprocs) {
  Manifest manifest;
  manifest.files = read_manifest(manifest_path);
  manifest.dir = std::filesystem::path(manifest_path).parent_path().string();
  manifest.nprocs =
      manifest.files.size() == 1 ? std::max(nprocs, 0) : static_cast<int>(manifest.files.size());
  if (manifest.files.size() > 1 && nprocs > 0 && nprocs != manifest.nprocs) {
    throw Error("manifest lists " + std::to_string(manifest.nprocs) + " trace files but " +
                std::to_string(nprocs) + " processes were requested");
  }
  return manifest;
}

void for_each_action(const Manifest& manifest, const std::function<void(const Action&)>& emit) {
  for (const std::string& f : manifest.files) {
    const std::string path = (std::filesystem::path(manifest.dir) / f).string();
    std::ifstream in(path);
    if (!in) throw Error("cannot open trace file: " + path);
    for_each_action(in, f + ":", emit);
  }
}

Trace load_trace(const std::string& manifest_path, int nprocs) {
  const Manifest manifest = resolve_manifest(manifest_path, nprocs);
  if (manifest.nprocs == 0) {
    throw Error("single-file manifest needs an explicit process count: " + manifest_path);
  }
  Trace trace(manifest.nprocs);
  for_each_action(manifest, [&](const Action& a) { trace.push(a); });
  fit(trace);
  return trace;
}

void validate(const Trace& trace) { validate_or_throw(trace); }

}  // namespace tir::tit
