// Strict numeric operands for the command-line tools.  Each parse accepts
// the whole string or nothing: "8x", "banana" and "" fail instead of
// becoming 8 or 0, and an integer outside its type's range fails instead of
// wrapping (4294967297 is not 1).  Callers print their usage and exit 2 on
// false (tests/cli/cli_args_test.cpp).
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace tir::cli {

inline bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

inline bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

/// Digits only: strtoull would otherwise accept "-1" as 2^64-1.
inline bool parse_uint64(const char* s, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// A comma-separated list of numbers ("1e9,2.5e9"); no empty items.
inline bool parse_doubles(const std::string& list, std::vector<double>& out) {
  out.clear();
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = list.find(',', begin);
    const std::string item = list.substr(begin, comma == std::string::npos ? comma : comma - begin);
    double v = 0.0;
    if (item.empty() || !parse_double(item.c_str(), v)) return false;
    out.push_back(v);
    if (comma == std::string::npos) return true;
    begin = comma + 1;
  }
}

}  // namespace tir::cli
