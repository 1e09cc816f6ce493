// platform::PlatformModel: a deterministic, parameterized platform generator.
//
// The paper's point predictions assume a noiseless platform; sensitivity
// analysis ("Variability Matters", PAPERS.md) needs *families* of platforms —
// the same machine description with link bandwidth/latency and per-host
// compute rate perturbed by seeded distributions.  A PlatformModel is
// base platform + PerturbationSpec; instantiate(seed) samples one concrete
// immutable Platform from the family.
//
// Determinism contract (docs/variability.md): every sampled multiplier is a
// pure function of (instance seed, parameter identity), drawn from the keyed
// stream rng::combine(instance_seed, param_hash) where param_hash folds a
// field tag ('B' bandwidth / 'L' latency / 'S' speed) with the entity name.
// Draws are therefore independent across parameters and invariant under
// reordering: sampling hosts before links, or skipping entities entirely,
// never changes any other entity's draw.  instantiate(seed) is bit-identical
// run-to-run, across thread counts, and across call orders — which is what
// lets core::mc_sweep promise bit-identical aggregates at any --jobs.
//
// Thread safety: PlatformModel is immutable after construction and
// instantiate() is const and stateless — share one model across any number
// of concurrent callers.  The returned Platform carries the usual
// const-shareability contract (docs/architecture.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace tir::platform {

/// Stable 64-bit hash of an entity name (FNV-1a), used to key draw streams.
std::uint64_t name_hash(const std::string& name);

/// A distribution over a positive multiplier applied to one platform scalar.
/// `param` is the spread: the half-width fraction for Uniform (multiplier in
/// [1-p, 1+p]), the standard deviation for Normal (1 + p·z) and LogNormal
/// (exp(p·z)).  Samples are clamped to a small positive floor so a perturbed
/// platform always stays physical.
struct Distribution {
  enum class Kind { None, Uniform, Normal, LogNormal };
  Kind kind = Kind::None;
  double param = 0.0;

  bool active() const { return kind != Kind::None; }

  /// Sample the multiplier from the keyed stream.  Pure: depends only on
  /// (kind, param, stream), never on prior draws.
  double sample(std::uint64_t stream) const;
};

/// Which distribution applies to which platform scalar, plus the base seed
/// the per-replicate instance seeds are derived from.  Parsed from the CLI /
/// wire grammar (docs/variability.md):
///
///   seed=S;link.bw=KIND:PARAM;link.lat=KIND:PARAM;host.speed=KIND:PARAM
///
/// with KIND in {uniform, normal, lognormal}; every clause optional, clauses
/// separated by ';'.  parse() throws tir::ConfigError naming the offending
/// token on any malformed clause.
struct PerturbationSpec {
  std::uint64_t seed = 1;
  Distribution link_bandwidth;
  Distribution link_latency;
  Distribution host_speed;

  /// Any distribution active?  (An inactive spec instantiates the base
  /// platform unchanged at every seed.)
  bool active() const {
    return link_bandwidth.active() || link_latency.active() || host_speed.active();
  }

  static PerturbationSpec parse(const std::string& text);

  /// Canonical text form: fixed clause order, shortest round-trippable
  /// params.  Equal specs render identically, so the canonical form is safe
  /// to fold into cache keys (svc does).
  std::string canonical() const;

  /// Stable content hash of the canonical form (excluding nothing: the seed
  /// is part of the spec and part of the hash).
  std::uint64_t hash() const;

  /// Seed of the i-th Monte Carlo replicate, derived from the spec's base
  /// seed via an order-free keyed mix.
  std::uint64_t replicate_seed(std::uint64_t i) const;
};

/// Names of the perturbable parameters, in canonical order.  The tornado
/// report (core::TornadoReport) is indexed by these.
const std::vector<std::string>& perturbation_parameters();

/// Return a copy of `spec` with every distribution but `parameter` (one of
/// perturbation_parameters()) switched off — the one-at-a-time spec the
/// tornado sensitivity grid instantiates.  Throws ConfigError on an unknown
/// parameter name.
PerturbationSpec isolate_parameter(const PerturbationSpec& spec,
                                   const std::string& parameter);

/// base platform + spec = a family of platforms indexed by seed.
class PlatformModel {
 public:
  PlatformModel() = default;
  PlatformModel(std::shared_ptr<const Platform> base, PerturbationSpec spec)
      : base_(std::move(base)), spec_(spec) {}

  const std::shared_ptr<const Platform>& base() const { return base_; }
  const PerturbationSpec& spec() const { return spec_; }

  /// Sample one concrete platform.  Pure and const: the same (model, seed)
  /// always yields a bit-identical platform; with an inactive spec the base
  /// platform itself is returned (no copy).
  std::shared_ptr<const Platform> instantiate(std::uint64_t instance_seed) const;

 private:
  std::shared_ptr<const Platform> base_;
  PerturbationSpec spec_;
};

/// Owned-or-borrowed handle to a const Platform.  core::Scenario holds one:
/// legacy callers keep assigning `&platform` (borrowed — must outlive the
/// sweep, exactly the old contract), while model-driven callers (mc_sweep,
/// the service) pass the shared_ptr an instantiate() returned and the
/// scenario keeps the instance alive by itself.
class PlatformRef {
 public:
  PlatformRef() = default;
  PlatformRef(const Platform* borrowed) : borrowed_(borrowed) {}  // NOLINT(google-explicit-constructor)
  PlatformRef(std::shared_ptr<const Platform> owned)              // NOLINT(google-explicit-constructor)
      : owned_(std::move(owned)), borrowed_(owned_.get()) {}

  const Platform* get() const { return borrowed_; }
  const Platform& operator*() const { return *borrowed_; }
  const Platform* operator->() const { return borrowed_; }
  explicit operator bool() const { return borrowed_ != nullptr; }

  /// The owning handle when this ref owns its platform (empty when borrowed).
  const std::shared_ptr<const Platform>& shared() const { return owned_; }

 private:
  std::shared_ptr<const Platform> owned_;
  const Platform* borrowed_ = nullptr;
};

}  // namespace tir::platform
