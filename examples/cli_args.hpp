// The command-line front end every tool shares.  A tool declares its flags
// (spellings, target, validation, error text) and its positionals on a
// cli::Args; Args::parse owns the argv loop.  Unknown flags, flags missing
// their value, malformed operands, stray positionals and missing required
// positionals print one line naming the culprit, then the tool's usage, and
// the tool exits kUsageExit (2) — a typo must never silently replay the
// wrong scenario (tests/cli/cli_args_test.cpp).
//
// Operands are strict: a number parse accepts the whole string or nothing
// ("8x", "banana" and "" fail instead of becoming 8 or 0), an integer
// outside its type's range fails instead of wrapping (4294967297 is not 1),
// and nan/inf are never numbers.  The job flags several tools share
// (-np -platform -rate -backend -contention -perturb -mc-seeds) are
// declared once, in JobFlags.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "core/job.hpp"
#include "platform/clusters.hpp"
#include "platform/model.hpp"
#include "platform/parse.hpp"

namespace tir::cli {

/// Finite numbers only: "nan", "inf" and overflow such as "1e999" fail.
inline bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

inline bool parse_number(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

/// Digits only: strtoull would otherwise accept "-1" as 2^64-1.
inline bool parse_number(const char* s, std::uint64_t& out) {
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
    if (item.empty() || !parse_number(item.c_str(), v)) return false;
    out.push_back(v);
    if (comma == std::string::npos) return true;
    begin = comma + 1;
  }
}

/// Exit status of a usage error: unknown flag, malformed operand, ...
inline constexpr int kUsageExit = 2;

/// Scripted-client contract of replay_cli and tir-submit: a failure exits
/// with 10 + its ErrorCode, so exit statuses tell a corrupt trace from a
/// deadlock from a watchdog kill without parsing stderr.
inline int exit_status(ErrorCode code) { return 10 + static_cast<int>(code); }

/// Handles one operand: false rejects it with the declared error text, and
/// a tir::Error it throws rejects it with the error's message.
using Apply = std::function<bool(const char* value)>;

inline constexpr auto any = [](auto) { return true; };
inline constexpr auto positive = [](auto v) { return v > 0; };
inline constexpr auto non_negative = [](auto v) { return v >= 0; };

/// Parses an operand strictly into `target` (int, double or uint64_t) and
/// accepts it only if `valid(target)`.
template <class T, class Valid>
Apply number(T& target, Valid valid) {
  return [&target, valid](const char* s) { return parse_number(s, target) && valid(target); };
}

class Args {
 public:
  using Usage = void (*)(const char* argv0);

  explicit Args(Usage usage) : usage_(usage) {}

  /// A switch without a value; `on` runs each time it appears.
  void flag(std::initializer_list<const char*> names, std::function<void()> on) {
    declare(names, false, nullptr, [on = std::move(on)](const char*) {
      on();
      return true;
    });
  }
  void flag(std::initializer_list<const char*> names, bool& target) {
    flag(names, [&target] { target = true; });
  }

  /// A flag taking the next argument as its value, whatever it looks like
  /// (so `-from -1` reaches the validation).  `wants` completes the
  /// rejection "FLAG wants WANTS, got 'VALUE'".
  void option(std::initializer_list<const char*> names, const char* wants, Apply apply) {
    declare(names, true, wants, std::move(apply));
  }
  void option(std::initializer_list<const char*> names, std::string& target) {
    option(names, nullptr, store(target));
  }

  /// Positionals are any argument not starting with '-', filled in
  /// declaration order; more of them than declared is a usage error.
  void positional(const char* name, bool required, const char* wants, Apply apply) {
    positionals_.push_back({{name}, false, required, wants, std::move(apply)});
  }
  void positional(const char* name, bool required, std::string& target) {
    positional(name, required, nullptr, store(target));
  }

  /// Runs the declared handlers over argv.  False after a usage error has
  /// been printed: the caller returns kUsageExit.
  bool parse(int argc, char** argv) {
    argv0_ = argv[0];
    std::size_t filled = 0;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (arg[0] != '-') {
        if (filled == positionals_.size()) {
          return reject(std::string("unexpected extra argument '") + arg + "'");
        }
        if (!apply(positionals_[filled++], arg)) return false;
        continue;
      }
      const Spec* spec = find(arg);
      if (spec == nullptr) return reject(std::string("unknown option '") + arg + "'");
      if (!spec->takes_value) {
        spec->apply(arg);
      } else if (i + 1 == argc) {
        return reject(std::string(arg) + " needs a value");
      } else if (!apply(*spec, argv[++i])) {
        return false;
      }
    }
    for (std::size_t p = filled; p < positionals_.size(); ++p) {
      if (positionals_[p].required) return reject("missing " + positionals_[p].names.front());
    }
    return true;
  }

  /// A check across flags failed after parse: print `why` and the usage.
  int fail(const std::string& why) const {
    reject(why);
    return kUsageExit;
  }

 private:
  struct Spec {
    std::vector<std::string> names;
    bool takes_value = false;
    bool required = false;  ///< positionals only
    const char* wants = nullptr;
    Apply apply;
  };

  static Apply store(std::string& target) {
    return [&target](const char* v) {
      target = v;
      return true;
    };
  }

  void declare(std::initializer_list<const char*> names, bool takes_value, const char* wants,
               Apply apply) {
    flags_.push_back({{names.begin(), names.end()}, takes_value, false, wants, std::move(apply)});
  }

  const Spec* find(const std::string& arg) const {
    for (const Spec& spec : flags_) {
      for (const std::string& name : spec.names) {
        if (name == arg) return &spec;
      }
    }
    return nullptr;
  }

  bool apply(const Spec& spec, const char* value) const {
    const std::string quoted = std::string(" '") + value + "'";
    try {
      if (spec.apply(value)) return true;
    } catch (const Error& e) {
      return reject(spec.names.front() + quoted + ": " + e.what());
    }
    return reject(spec.names.front() + " wants " + (spec.wants ? spec.wants : "a value") +
                  ", got" + quoted);
  }

  bool reject(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", argv0_, message.c_str());
    usage_(argv0_);
    return false;
  }

  Usage usage_;
  const char* argv0_ = "";
  std::vector<Spec> flags_;
  std::vector<Spec> positionals_;
};

/// "rate=1e+09": the label of a one-rate scenario in every tool's output.
inline std::string rate_label(double rate) {
  char label[64];
  std::snprintf(label, sizeof label, "rate=%g", rate);
  return label;
}

/// The job flags replay_cli, tir-profile and tir-submit share, each
/// declared once with its one validation.
struct JobFlags {
  int np = -1;                 ///< -np N; -1: from the trace
  std::string platform;        ///< -platform FILE; empty: default_cluster
  std::vector<double> rates;   ///< -rate, each finite and > 0
  core::Backend backend = core::Backend::Smpi;
  bool contention = false;     ///< MaxMin link sharing instead of Uncontended
  std::string perturb;         ///< -perturb SPEC, already parsed once
  int mc_seeds = 0;            ///< -mc-seeds N; 0: not given

  /// -np, -platform, -rate, -backend and -contention.  With `rate_list`
  /// -rate takes a comma-separated list, otherwise one number.
  void declare_replay(Args& args, bool rate_list) {
    args.option({"-np"}, "a positive integer", number(np, positive));
    args.option({"-platform"}, platform);
    if (rate_list) {
      args.option({"-rate"}, "a comma-separated list of finite rates > 0", [this](const char* v) {
        return parse_doubles(v, rates) && std::all_of(rates.begin(), rates.end(), positive);
      });
    } else {
      args.option({"-rate"}, "a finite rate > 0", [this](const char* v) {
        rates = {0.0};
        return number(rates.front(), positive)(v);
      });
    }
    args.option({"-backend"}, "smpi or msg", [this](const std::string& v) {
      if (v != "smpi" && v != "msg") return false;
      backend = v == "msg" ? core::Backend::Msg : core::Backend::Smpi;
      return true;
    });
    args.flag({"-contention"}, contention);
  }

  /// -perturb and -mc-seeds.
  void declare_monte_carlo(Args& args) {
    args.option({"-perturb"}, nullptr, [this](const char* v) {
      (void)tir::platform::PerturbationSpec::parse(v);  // throws on a malformed spec
      perturb = v;
      return true;
    });
    args.option({"-mc-seeds"}, "a positive integer", number(mc_seeds, positive));
  }

  /// "smpi (new) + contention": the backend line of the replay tools.
  std::string describe() const {
    return std::string(backend == core::Backend::Msg ? "msg (old)" : "smpi (new)") +
           (contention ? " + contention" : "");
  }

  /// The job's scenarios: one per -rate, labelled rate_label; without
  /// -rate, one spec labelled `unrated` that replays at the job's
  /// calibrated rate.
  std::vector<core::ScenarioSpec> scenarios(const std::string& unrated,
                                            double watchdog_seconds = 0.0) const {
    core::ScenarioSpec base;
    base.backend = backend;
    base.contention = contention;
    base.watchdog_seconds = watchdog_seconds;
    if (rates.empty()) {
      base.label = unrated;
      return {base};
    }
    std::vector<core::ScenarioSpec> specs;
    for (const double rate : rates) {
      core::ScenarioSpec spec = base;
      spec.rates = {rate};
      spec.label = rate_label(rate);
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  /// The -platform file, or else platform::default_cluster with one node
  /// per rank at the first rate, which `tool` notes on stderr.
  tir::platform::Platform make_platform(int nprocs, const char* tool) const {
    if (!platform.empty()) return tir::platform::load_platform(platform);
    std::fprintf(stderr, "[%s] no -platform given: using a default %d-node 1GbE cluster\n", tool,
                 nprocs);
    return tir::platform::default_cluster(nprocs, rates.front());
  }
};

}  // namespace tir::cli
