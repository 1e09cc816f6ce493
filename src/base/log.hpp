// Minimal leveled logger.
//
// The simulation kernel is performance sensitive, so log calls below the
// active level must cost one branch.  Usage:
//
//   TIR_LOG(Info, "calibrated rate " << rate << " instr/s");
//
// The level is read once from the TIR_LOG_LEVEL environment variable
// (trace|debug|info|warn|error|off, default warn); records go to std::cerr.
//
// Thread safety: all entry points are safe to call from concurrent replay
// sessions (core::Sweep workers).  The level is fixed after start-up;
// write() serializes emission so records never interleave.
#pragma once

#include <sstream>
#include <string>

namespace tir::log {

enum class Level : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Currently active level (inclusive).
Level level();

/// Emit one formatted record. Prefer the TIR_LOG macro.
void write(Level l, const std::string& msg);

const char* level_name(Level l);

}  // namespace tir::log

#define TIR_LOG(lvl, expr) \
  do { \
    if (::tir::log::Level::lvl >= ::tir::log::level()) { \
      std::ostringstream tir_log_oss_; \
      tir_log_oss_ << expr; \
      ::tir::log::write(::tir::log::Level::lvl, tir_log_oss_.str()); \
    } \
  } while (false)
