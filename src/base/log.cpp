#include "base/log.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

namespace tir::log {

namespace {

Level env_level() {
  const char* v = std::getenv("TIR_LOG_LEVEL");
  if (v == nullptr) return Level::Warn;
  if (std::strcmp(v, "trace") == 0) return Level::Trace;
  if (std::strcmp(v, "debug") == 0) return Level::Debug;
  if (std::strcmp(v, "info") == 0) return Level::Info;
  if (std::strcmp(v, "warn") == 0) return Level::Warn;
  if (std::strcmp(v, "error") == 0) return Level::Error;
  if (std::strcmp(v, "off") == 0) return Level::Off;
  return Level::Warn;
}

// Concurrent sweep workers log through here: the level is set once at
// start-up and only read after, and write() serializes record emission so
// lines never interleave.
const Level g_level = env_level();
std::mutex g_write_mutex;

}  // namespace

Level level() { return g_level; }

const char* level_name(Level l) {
  switch (l) {
    case Level::Trace: return "TRACE";
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO";
    case Level::Warn: return "WARN";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF";
  }
  return "?";
}

void write(Level l, const std::string& msg) {
  const std::lock_guard<std::mutex> lock(g_write_mutex);
  std::cerr << "[tir:" << level_name(l) << "] " << msg << '\n';
}

}  // namespace tir::log
