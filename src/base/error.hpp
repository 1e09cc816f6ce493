// Error types shared across the TiR libraries.
//
// All recoverable failures (bad trace syntax, unknown platform entity,
// inconsistent simulation state triggered by user input) throw an exception
// derived from tir::Error.  Internal invariant violations use TIR_ASSERT,
// which throws InternalError so tests can observe them.
//
// Every Error carries a machine-inspectable ErrorCode so callers (CLIs, the
// fault-injection harness, batch pipelines over millions of traces) can
// dispatch on the failure class without parsing message strings: a
// MalformedTrace is the input's fault, a CorruptFrame is the storage's, a
// Deadlock is a semantic inconsistency caught at replay time, a Watchdog is
// a bounded-time guarantee firing, an Internal error is a TiR bug.
#pragma once

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tir {

/// The failure taxonomy (docs/robustness.md). Stable values: these are used
/// as process exit details and in structured reports.
enum class ErrorCode : std::uint8_t {
  Generic,         ///< untyped legacy failure (I/O, missing file, ...)
  Parse,           ///< unreadable input syntax (trace text, platform files)
  Config,          ///< inconsistent user configuration (rates, options)
  MalformedTrace,  ///< syntactically fine but semantically inconsistent trace
  CorruptFrame,    ///< binary trace damage: CRC mismatch, truncation
  Sim,             ///< simulated program misused the simulation API
  Deadlock,        ///< replay wedged: blocked processes that can never run
  Watchdog,        ///< wall-clock limit exceeded; replay cancelled
  Internal,        ///< broken TiR invariant (a bug in TiR itself)
  Cancelled,       ///< cooperative cancellation (deadline expiry, shutdown)
};

/// Wire and stderr names of the codes, indexed by ErrorCode value.
inline constexpr std::string_view kErrorCodeNames[] = {
    "error",          "parse-error",      "config-error", "malformed-trace",
    "corrupt-frame",  "simulation-error", "deadlock",     "watchdog",
    "internal-error", "cancelled",
};
static_assert(std::size(kErrorCodeNames) == static_cast<std::size_t>(ErrorCode::Cancelled) + 1);

inline const char* error_code_name(ErrorCode code) {
  const auto index = static_cast<std::size_t>(code);
  return index < std::size(kErrorCodeNames) ? kErrorCodeNames[index].data() : "?";
}

/// The inverse of error_code_name; Generic for a name it never returns.
inline ErrorCode error_code_from_name(std::string_view name) {
  for (std::size_t index = 0; index < std::size(kErrorCodeNames); ++index) {
    if (kErrorCodeNames[index] == name) return static_cast<ErrorCode>(index);
  }
  return ErrorCode::Generic;
}

/// Base class of every exception thrown by the TiR libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorCode code = ErrorCode::Generic)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }
  const char* code_name() const { return error_code_name(code_); }

 private:
  ErrorCode code_;
};

/// Malformed input: trace syntax, platform files, bad configuration values.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what, ErrorCode code = ErrorCode::Parse)
      : Error("parse error: " + what, code) {}
};

/// Inconsistent user-supplied configuration (e.g. a per-rank rate vector
/// shorter than the rank count).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what)
      : Error("config error: " + what, ErrorCode::Config) {}
};

/// A trace that parses but cannot describe a real MPI execution: unmatched
/// point-to-point traffic, inconsistent collectives, out-of-range ranks.
/// Raised by the static validator (tit/validate.hpp) and by replay-time
/// spot checks on streamed traces.
class MalformedTraceError : public Error {
 public:
  explicit MalformedTraceError(const std::string& what)
      : Error("malformed trace: " + what, ErrorCode::MalformedTrace) {}
};

/// Physical damage to a binary trace: CRC mismatch, truncated frame, frame
/// disagreeing with the index. Carries the file offset of the damage (and
/// the owning rank when known) so tooling can localize bit rot.
class CorruptFrameError : public ParseError {
 public:
  CorruptFrameError(const std::string& what, std::uint64_t offset, int rank = -1)
      : ParseError(what + " (at byte offset " + std::to_string(offset) +
                       (rank >= 0 ? ", rank p" + std::to_string(rank) : "") + ")",
                   ErrorCode::CorruptFrame),
        offset_(offset),
        rank_(rank) {}

  /// File offset of the damaged frame (or the file size for truncations
  /// detected at the missing footer).
  std::uint64_t offset() const { return offset_; }
  /// Rank owning the damaged frame; -1 when the damage precedes rank info.
  int rank() const { return rank_; }

 private:
  std::uint64_t offset_;
  int rank_;
};

/// A simulated program used the simulation API incorrectly
/// (e.g. receive with no matching send at end of simulation -> deadlock).
class SimError : public Error {
 public:
  explicit SimError(const std::string& what, ErrorCode code = ErrorCode::Sim)
      : Error("simulation error: " + what, code) {}
};

/// Replay wedged: some processes remain blocked but nothing can ever
/// complete. Carries the wait-for diagnosis (one line per blocked actor:
/// who blocks on which mailbox/collective, last completed action).
class DeadlockError : public SimError {
 public:
  DeadlockError(const std::string& what, std::vector<std::string> blocked)
      : SimError(what, ErrorCode::Deadlock), blocked_(std::move(blocked)) {}

  /// Names of the actors blocked forever (e.g. "rank3"), in spawn order.
  const std::vector<std::string>& blocked() const { return blocked_; }

 private:
  std::vector<std::string> blocked_;
};

/// The wall-clock watchdog fired: the simulation exceeded its host-time
/// budget and was cancelled gracefully (engine state unwound, no partial
/// results published).
class WatchdogError : public SimError {
 public:
  explicit WatchdogError(const std::string& what)
      : SimError(what, ErrorCode::Watchdog) {}
};

/// Broken internal invariant. Indicates a bug in TiR itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what)
      : Error("internal error: " + what, ErrorCode::Internal) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line) {
  throw InternalError(std::string(expr) + " at " + file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace tir

/// Always-on assertion that throws tir::InternalError (testable, no abort).
#define TIR_ASSERT(expr) \
  do { \
    if (!(expr)) ::tir::detail::assert_fail(#expr, __FILE__, __LINE__); \
  } while (false)
