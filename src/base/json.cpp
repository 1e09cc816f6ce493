#include "base/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace tir {

namespace {

const Json kNull{};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

struct Json::Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at offset " + std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                                 text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The protocol only ever emits ASCII; decode BMP points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_value(int depth) {
    if (depth > 64) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj.set(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos;
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      for (;;) {
        arr.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return Json(parse_string());
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json(nullptr);
    return parse_number();
  }

  /// RFC 8259 numbers only, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// and finite: strtod alone would also take inf, nan, hex and 1e999 (as
  /// inf).  A rejected token is reported at the offset where it starts.
  /// The value keeps the token text.
  Json parse_number() {
    const std::size_t start = pos;
    const auto at = [&](const char* set) {
      return pos < text.size() && text[pos] != '\0' && std::strchr(set, text[pos]) != nullptr;
    };
    const auto digits = [&] {
      const std::size_t from = pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
      return pos > from;
    };
    if (at("-")) ++pos;
    bool ok = true;
    if (at("0")) {
      ++pos;
    } else {
      ok = digits();
    }
    if (ok && at(".")) {
      ++pos;
      ok = digits();
    }
    if (ok && at("eE")) {
      ++pos;
      if (at("+-")) ++pos;
      ok = digits();
    }
    // A number ends at a delimiter: this rejects "01", "0x1p30" and "1.5.2".
    ok = ok && !at(".+-") &&
         (pos == text.size() || !std::isalnum(static_cast<unsigned char>(text[pos])));
    std::string token(text.substr(start, pos - start));
    if (!ok || !std::isfinite(std::strtod(token.c_str(), nullptr))) {
      pos = start;
      fail(ok ? "number out of range" : "malformed number");
    }
    return from_token(std::move(token));
  }
};

Json Json::number(double v, int digits) {
  if (!std::isfinite(v)) return Json();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return from_token(buf);
}

Json Json::from_token(std::string token) {
  Json j;
  j.type_ = Type::Number;
  j.str_ = std::move(token);
  return j;
}

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value(0);
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing characters");
  return v;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw ParseError("json: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) throw ParseError("json: not a number");
  return std::strtod(str_.c_str(), nullptr);
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw ParseError("json: not a string");
  return str_;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return items_.size();
  if (type_ == Type::Object) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::Array || i >= items_.size()) throw ParseError("json: bad array index");
  return items_[i];
}

void Json::push_back(Json v) {
  TIR_ASSERT(type_ == Type::Array);
  items_.push_back(std::move(v));
}

const Json& Json::get(std::string_view key) const {
  if (type_ == Type::Object) {
    for (const auto& [k, v] : members_) {
      if (k == key) return v;
    }
  }
  return kNull;
}

void Json::set(std::string key, Json value) {
  TIR_ASSERT(type_ == Type::Object);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

double Json::num_or(std::string_view key, double fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_number() : fallback;
}

std::string Json::str_or(std::string_view key, std::string fallback) const {
  const Json& v = get(key);
  return v.is_string() ? v.as_string() : fallback;
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json& v = get(key);
  return v.is_bool() ? v.as_bool() : fallback;
}

template <typename T>
T Json::int_or(std::string_view key, T fallback) const {
  const Json& v = get(key);
  if (!v.is_number()) return fallback;
  const std::string& token = v.str_;
  T out{};
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  if (ec == std::errc() && end == token.data() + token.size()) return out;
  if (ec != std::errc::result_out_of_range) {
    // [lo, hi) bounds the integers T holds; both are exact doubles.
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
    const double d = v.as_number();
    if (d == std::trunc(d) && d >= lo && d < hi) return static_cast<T>(d);
  }
  throw ConfigError("'" + std::string(key) + "' must be an integer that fits, got " + token);
}

template int Json::int_or<int>(std::string_view, int) const;
template std::uint64_t Json::int_or<std::uint64_t>(std::string_view, std::uint64_t) const;

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: out += str_; return;
    case Type::String: dump_string(out, str_); return;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        items_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace tir
