#include "base/fault.hpp"

#include <limits>
#include <memory>
#include <mutex>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/string_util.hpp"

namespace tir::fault {

namespace {

std::uint64_t hash_name(const std::string& name) {
  std::uint64_t h = 0x7469722d666c74ULL;  // arbitrary domain tag
  for (const char c : name) h = rng::combine(h, static_cast<unsigned char>(c));
  return h;
}

Kind parse_kind(const std::string& token, const std::string& spec) {
  if (token == "eintr") return Kind::Eintr;
  if (token == "eagain") return Kind::Eagain;
  if (token == "short") return Kind::ShortWrite;
  if (token == "reset") return Kind::Reset;
  if (token == "accept-fail") return Kind::AcceptFail;
  if (token == "stall") return Kind::Stall;
  if (token == "alloc-fail") return Kind::AllocFail;
  throw ConfigError("fault plan '" + spec + "': unknown fault kind '" + token +
                    "' (expected eintr|eagain|short|reset|accept-fail|stall|alloc-fail)");
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Keep-alive arena: every plan ever armed lives until process exit, so a
/// racing point() that loaded the old pointer can finish its consult.  The
/// population is bounded by the number of arm() calls (tests arm at most a
/// few hundred plans; a daemon arms one).
struct Arena {
  std::mutex mutex;
  std::vector<std::unique_ptr<detail::ArmedPlan>> plans;
  std::vector<std::unique_ptr<detail::ArmedRule>> rules;
};

Arena& arena() {
  static Arena* a = new Arena();  // leaked: outlives static destruction races
  return *a;
}

}  // namespace

namespace detail {

std::atomic<const ArmedPlan*> g_armed{nullptr};

Kind consult(const ArmedPlan* plan, const char* point) {
  for (const ArmedPoint& p : plan->points) {
    if (p.name != point) continue;
    for (ArmedRule* rule : p.rules) {
      // The k-th consult of a point is deterministic in (seed, name, k):
      // claim our index first, then decide.  Concurrent consults interleave
      // their indices nondeterministically, but each index's verdict is
      // fixed, so the *set* of faults a schedule can produce is stable.
      const std::uint64_t n = rule->consults.fetch_add(1, std::memory_order_relaxed);
      if (rule->fires.load(std::memory_order_relaxed) >= rule->max_fires) continue;
      if (rng::uniform01(rule->stream, n) < rule->probability) {
        rule->fires.fetch_add(1, std::memory_order_relaxed);
        return rule->kind;
      }
    }
    return Kind::None;
  }
  return Kind::None;
}

}  // namespace detail

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::None: return "none";
    case Kind::Eintr: return "eintr";
    case Kind::Eagain: return "eagain";
    case Kind::ShortWrite: return "short";
    case Kind::Reset: return "reset";
    case Kind::AcceptFail: return "accept-fail";
    case Kind::Stall: return "stall";
    case Kind::AllocFail: return "alloc-fail";
  }
  return "?";
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", begin);
    if (end == std::string::npos) end = spec.size();
    const std::string token = trimmed(spec.substr(begin, end - begin));
    begin = end + 1;
    if (token.empty()) {
      if (end == spec.size()) break;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      throw ConfigError("fault plan '" + spec + "': token '" + token +
                        "' is not NAME=VALUE (expected seed=S or POINT=KIND:PROB[:MAX])");
    }
    const std::string name = trimmed(token.substr(0, eq));
    const std::string value = trimmed(token.substr(eq + 1));
    if (name == "seed") {
      try {
        plan.seed_ = str::to_u64(value, "seed");
      } catch (const ParseError&) {
        throw ConfigError("fault plan '" + spec + "': bad seed '" + value + "'");
      }
      continue;
    }
    Rule rule;
    rule.point = name;
    const std::size_t c1 = value.find(':');
    if (c1 == std::string::npos) {
      throw ConfigError("fault plan '" + spec + "': rule '" + token +
                        "' needs KIND:PROB (e.g. " + name + "=reset:0.1)");
    }
    rule.kind = parse_kind(value.substr(0, c1), spec);
    const std::size_t c2 = value.find(':', c1 + 1);
    const std::string prob =
        value.substr(c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
    try {
      rule.probability = str::to_double(prob, "probability");
    } catch (const ParseError&) {
      throw ConfigError("fault plan '" + spec + "': bad probability '" + prob + "'");
    }
    if (!(rule.probability >= 0.0 && rule.probability <= 1.0)) {
      throw ConfigError("fault plan '" + spec + "': probability " + prob +
                        " out of [0,1] for point " + name);
    }
    if (c2 != std::string::npos) {
      const std::string max = value.substr(c2 + 1);
      std::uint64_t parsed = 0;
      try {
        parsed = str::to_u64(max, "max_fires");
      } catch (const ParseError&) {
        // Left 0: reported below together with the out-of-range counts.
      }
      if (parsed < 1 || parsed > std::numeric_limits<std::uint32_t>::max()) {
        throw ConfigError("fault plan '" + spec + "': bad max_fires '" + max + "' for point " +
                          name + " (expected a positive integer)");
      }
      rule.max_fires = static_cast<std::uint32_t>(parsed);
    }
    plan.rules_.push_back(std::move(rule));
  }
  return plan;
}

void arm(const FaultPlan& plan) {
  auto armed = std::make_unique<detail::ArmedPlan>();
  Arena& a = arena();
  const std::lock_guard<std::mutex> lock(a.mutex);
  for (const Rule& rule : plan.rules()) {
    auto armed_rule = std::make_unique<detail::ArmedRule>();
    armed_rule->kind = rule.kind;
    armed_rule->probability = rule.probability;
    armed_rule->max_fires = rule.max_fires;
    armed_rule->stream = rng::combine(plan.seed(), hash_name(rule.point));
    detail::ArmedRule* raw = armed_rule.get();
    a.rules.push_back(std::move(armed_rule));
    bool found = false;
    for (detail::ArmedPoint& p : armed->points) {
      if (p.name == rule.point) {
        p.rules.push_back(raw);
        found = true;
        break;
      }
    }
    if (!found) armed->points.push_back(detail::ArmedPoint{rule.point, {raw}});
  }
  detail::g_armed.store(armed.get(), std::memory_order_release);
  a.plans.push_back(std::move(armed));
}

void disarm() { detail::g_armed.store(nullptr, std::memory_order_release); }

std::uint64_t fired_total() {
  const detail::ArmedPlan* plan = detail::g_armed.load(std::memory_order_acquire);
  if (plan == nullptr) return 0;
  std::uint64_t total = 0;
  for (const detail::ArmedPoint& p : plan->points) {
    for (const detail::ArmedRule* rule : p.rules) {
      total += rule->fires.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace tir::fault
