// Minimal JSON value: the one parser and writer of the code base.
//
// It carries the tird wire protocol (docs/service.md), the obs metrics
// report (tir-profile's BASENAME.json and the wire's metrics lines), the
// Monte Carlo report and bench_gates' BENCH_gates.json.
//
// A number keeps its JSON token text.  A double is rendered once when the
// value is built: %.17g by default, which round-trips every finite double
// exactly (the service bench proves cached and cold replays bit-identical
// by comparing numbers that crossed the wire), or fewer digits when the
// emitter asks for them (Json::number).  An integer is its exact decimal
// text, so 64-bit seeds survive.  A parsed number keeps the token as it
// arrived, so dump() copies it.  A non-finite double is null.
//
// Intentionally not a general-purpose JSON library: no comments, no \u
// escapes beyond what the writers emit (non-ASCII bytes pass through
// verbatim), objects preserve insertion order, duplicate keys keep the last.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/error.hpp"

namespace tir {

class Json {
 public:
  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double v) : Json(number(v, 17)) {}
  Json(int v) : type_(Type::Number), str_(std::to_string(v)) {}
  Json(std::int64_t v) : type_(Type::Number), str_(std::to_string(v)) {}
  // Covers std::size_t too (the same type as uint64_t on LP64 targets).
  Json(std::uint64_t v) : type_(Type::Number), str_(std::to_string(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  /// `v` rendered with `digits` significant digits (%.<digits>g); null
  /// when `v` is not finite.
  static Json number(double v, int digits);
  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  /// An object holding `members` in order: Json::object({{"k", 1}, ...}).
  static Json object(std::initializer_list<std::pair<std::string, Json>> members = {}) {
    Json j;
    j.type_ = Type::Object;
    j.members_.assign(members);
    return j;
  }

  /// Parse one JSON document; trailing non-whitespace throws.  All errors
  /// are tir::ParseError with the byte offset.
  static Json parse(std::string_view text);

  bool is_null() const { return type_ == Type::Null; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_string() const { return type_ == Type::String; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_bool() const { return type_ == Type::Bool; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  // --- arrays ---------------------------------------------------------------
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  void push_back(Json v);

  // --- objects --------------------------------------------------------------
  /// Null reference if absent (never throws): `j.get("k").is_null()`.
  const Json& get(std::string_view key) const;
  void set(std::string key, Json value);

  // Typed object lookups with defaults (the protocol is default-heavy).
  double num_or(std::string_view key, double fallback) const;
  std::string str_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  /// The integer at `key` (int or std::uint64_t), `fallback` when it is not
  /// a number.  A plain decimal token is read exactly; other spellings
  /// (8.0, 1e3) go through the double.  Throws tir::ConfigError naming the
  /// key when the value is not integral or does not fit in T.
  template <typename T>
  T int_or(std::string_view key, T fallback) const;

  /// Serialize compactly (no whitespace) — one response per line.
  std::string dump() const;

 private:
  enum class Type { Null, Bool, Number, String, Array, Object };
  struct Parser;
  /// A Number holding `token` verbatim.
  static Json from_token(std::string token);
  void dump_to(std::string& out) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::string str_;                                      ///< String, or a Number's token
  std::vector<Json> items_;                              ///< Array
  std::vector<std::pair<std::string, Json>> members_;    ///< Object, insertion order
};

}  // namespace tir
