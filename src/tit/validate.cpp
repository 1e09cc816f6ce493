#include "tit/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace tir::tit {

namespace {

/// One collective occurrence in a rank's stream, for site-by-site comparison.
struct CollectiveSite {
  ActionType type;
  int root;
  double volume;
  std::ptrdiff_t index;  ///< action index in the issuing rank's stream
};

class Checker {
 public:
  Checker(const Trace& trace, const ValidateOptions& options)
      : trace_(trace), options_(options) {}

  ValidationReport run() {
    report_.nprocs = trace_.nprocs();
    per_rank_collectives_.resize(static_cast<std::size_t>(trace_.nprocs()));
    for (int p = 0; p < trace_.nprocs(); ++p) check_rank(p);
    check_pairs();
    check_collectives();
    return std::move(report_);
  }

 private:
  void add(Severity severity, int rank, std::ptrdiff_t index, std::string message) {
    if (severity == Severity::Error) {
      ++report_.errors;
    } else {
      ++report_.warnings;
    }
    if (report_.issues.size() < options_.max_issues) {
      report_.issues.push_back(
          ValidationIssue{severity, ErrorCode::MalformedTrace, rank, index, std::move(message)});
    }
  }

  void check_volume(double v, int rank, std::ptrdiff_t i, const Action& a, const char* which) {
    if (std::isnan(v) || !std::isfinite(v)) {
      add(Severity::Error, rank, i, std::string("non-finite ") + which + ": " + to_line(a));
    } else if (v < 0.0) {
      add(Severity::Error, rank, i, std::string("negative ") + which + ": " + to_line(a));
    } else if (v > options_.absurd_volume) {
      add(Severity::Warning, rank, i,
          std::string("implausibly large ") + which + ": " + to_line(a));
    }
  }

  void check_rank(int p) {
    bool saw_finalize = false;
    long outstanding = 0;  // nonblocking requests not yet collected
    const std::vector<Action>& seq = trace_.actions(p);
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(seq.size()); ++i) {
      const Action& a = seq[static_cast<std::size_t>(i)];
      ++report_.actions_checked;
      if (saw_finalize) {
        add(Severity::Error, p, i, "action after finalize: " + to_line(a));
        saw_finalize = false;  // report once per finalize, not per trailing action
      }

      // Volume sanity. kNoVolume on a recv is the legal old-format marker.
      if (!(a.type == ActionType::Recv && a.volume == kNoVolume)) {
        check_volume(a.volume, p, i, a, "volume");
      }
      check_volume(a.volume2, p, i, a, "second volume");

      switch (a.type) {
        case ActionType::Send:
        case ActionType::Isend:
        case ActionType::Recv:
        case ActionType::Irecv: {
          if (a.partner < 0 || a.partner >= trace_.nprocs()) {
            add(Severity::Error, p, i, "partner out of range: " + to_line(a));
            break;
          }
          if (a.partner == p) {
            add(Severity::Error, p, i, "self-message: " + to_line(a));
            break;
          }
          const bool is_send = a.type == ActionType::Send || a.type == ActionType::Isend;
          PairTraffic& pair = pairs_[is_send ? std::pair{p, a.partner}
                                             : std::pair{a.partner, p}];
          (is_send ? pair.send_volumes : pair.recv_volumes).push_back(a.volume);
          if (a.type == ActionType::Isend || a.type == ActionType::Irecv) ++outstanding;
          break;
        }
        case ActionType::Wait:
          if (outstanding == 0) {
            add(Severity::Error, p, i, "wait with no outstanding nonblocking request");
          } else {
            --outstanding;
          }
          break;
        case ActionType::WaitAll:
          outstanding = 0;
          break;
        case ActionType::Finalize:
          saw_finalize = true;
          break;
        default:
          break;
      }

      if (is_collective(a.type)) {
        if (is_rooted(a.type) && (a.partner < 0 || a.partner >= trace_.nprocs())) {
          add(Severity::Error, p, i, "root out of range: " + to_line(a));
        }
        per_rank_collectives_[static_cast<std::size_t>(p)].push_back(
            CollectiveSite{a.type, a.partner, a.volume, i});
      }
    }
    if (outstanding > 0) {
      add(Severity::Warning, p, static_cast<std::ptrdiff_t>(seq.size()) - 1,
          std::to_string(outstanding) + " nonblocking request(s) never waited on");
    }
  }

  void check_pairs() {
    for (const auto& [key, pair] : pairs_) {
      // Append-built (not an operator+ chain): GCC 12's -Wrestrict misfires
      // on the inlined SSO copies of such chains under -Werror.
      std::string name = "p";
      name += std::to_string(key.first);
      name += " -> p";
      name += std::to_string(key.second);
      if (pair.send_volumes.size() != pair.recv_volumes.size()) {
        add(Severity::Error, -1, -1,
            "unbalanced p2p traffic " + name + ": " +
                std::to_string(pair.send_volumes.size()) + " send(s) but " +
                std::to_string(pair.recv_volumes.size()) + " recv(s)");
      }
      // MPI non-overtaking makes per-pair matching FIFO: where the new
      // format recorded the recv size, it must agree with the paired send.
      const std::size_t n = std::min(pair.send_volumes.size(), pair.recv_volumes.size());
      for (std::size_t k = 0; k < n; ++k) {
        const double recv = pair.recv_volumes[k];
        if (recv != kNoVolume && recv != pair.send_volumes[k]) {
          add(Severity::Warning, -1, -1,
              "size mismatch on message " + std::to_string(k) + " of " + name + ": sent " +
                  std::to_string(pair.send_volumes[k]) + " bytes, received " +
                  std::to_string(recv));
        }
      }
    }
  }

  void check_collectives() {
    std::size_t sites = 0;
    for (const auto& seq : per_rank_collectives_) sites = std::max(sites, seq.size());
    if (sites == 0) return;

    for (std::size_t k = 0; k < sites; ++k) {
      // The first rank that reaches site k defines the expected operation.
      const CollectiveSite* expected = nullptr;
      int expected_rank = -1;
      for (int p = 0; p < trace_.nprocs(); ++p) {
        const auto& seq = per_rank_collectives_[static_cast<std::size_t>(p)];
        if (k >= seq.size()) {
          add(Severity::Error, p, -1,
              "collective site " + std::to_string(k) + ": p" + std::to_string(p) +
                  " never participates (has only " + std::to_string(seq.size()) +
                  " collective(s)); peers would block forever");
          continue;
        }
        const CollectiveSite& site = seq[k];
        if (expected == nullptr) {
          expected = &site;
          expected_rank = p;
          continue;
        }
        if (site.type != expected->type) {
          add(Severity::Error, p, site.index,
              "collective site " + std::to_string(k) + ": p" + std::to_string(p) + " issues " +
                  action_name(site.type) + " but p" + std::to_string(expected_rank) +
                  " issues " + action_name(expected->type));
          continue;
        }
        if (is_rooted(site.type) && site.root != expected->root) {
          add(Severity::Error, p, site.index,
              "collective site " + std::to_string(k) + " (" + action_name(site.type) +
                  "): root disagrees (p" + std::to_string(p) + " says p" +
                  std::to_string(site.root) + ", p" + std::to_string(expected_rank) +
                  " says p" + std::to_string(expected->root) + ")");
        }
        if (site.volume != expected->volume) {
          add(Severity::Warning, p, site.index,
              "collective site " + std::to_string(k) + " (" + action_name(site.type) +
                  "): volume disagrees (p" + std::to_string(p) + ": " +
                  std::to_string(site.volume) + ", p" + std::to_string(expected_rank) + ": " +
                  std::to_string(expected->volume) + ")");
        }
      }
    }
  }

  struct PairTraffic {
    std::vector<double> send_volumes;  ///< src program order
    std::vector<double> recv_volumes;  ///< dst program order
  };

  const Trace& trace_;
  const ValidateOptions& options_;
  ValidationReport report_;
  std::map<std::pair<int, int>, PairTraffic> pairs_;
  std::vector<std::vector<CollectiveSite>> per_rank_collectives_;
};

}  // namespace

ValidationReport validate_trace(const Trace& trace, const ValidateOptions& options) {
  return Checker(trace, options).run();
}

std::string to_string(const ValidationReport& report) {
  std::string out = "trace validation: ";
  out += std::to_string(report.errors);
  out += " error(s), ";
  out += std::to_string(report.warnings);
  out += " warning(s) over ";
  out += std::to_string(report.actions_checked);
  out += " action(s), ";
  out += std::to_string(report.nprocs);
  out += " rank(s)\n";
  for (const ValidationIssue& issue : report.issues) {
    out += "  [";
    out += issue.severity == Severity::Error ? "error" : "warning";
    out += "] ";
    if (issue.rank >= 0) {
      out += 'p';
      out += std::to_string(issue.rank);
      if (issue.index >= 0) {
        out += " #";
        out += std::to_string(issue.index);
      }
      out += ": ";
    }
    out += issue.message;
    out += '\n';
  }
  const std::size_t total = report.errors + report.warnings;
  if (total > report.issues.size()) {
    out += "  ... ";
    out += std::to_string(total - report.issues.size());
    out += " more issue(s)\n";
  }
  return out;
}

void validate_or_throw(const Trace& trace, const ValidateOptions& options) {
  const ValidationReport report = validate_trace(trace, options);
  if (report.ok()) return;
  for (const ValidationIssue& issue : report.issues) {
    if (issue.severity != Severity::Error) continue;
    std::string what;
    if (issue.rank >= 0) {
      what += 'p';
      what += std::to_string(issue.rank);
      what += ": ";
    }
    what += issue.message;
    if (report.errors > 1) {
      what += " (+";
      what += std::to_string(report.errors - 1);
      what += " more error(s))";
    }
    throw MalformedTraceError(what);
  }
  // errors counted but all capped out of `issues`: still fail loudly.
  throw MalformedTraceError(std::to_string(report.errors) + " validation error(s)");
}

}  // namespace tir::tit
