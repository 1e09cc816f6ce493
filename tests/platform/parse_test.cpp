#include "platform/parse.hpp"

#include "platform/clusters.hpp"
#include "platform/model.hpp"

#include <gtest/gtest.h>

namespace tir::platform {
namespace {

TEST(Parse, MinimalHostAndSwitch) {
  const Platform p = parse_platform_string(R"(
# a comment
switch sw0
host n0 switch=sw0 cores=4 speed=2.5e9 l2=1MiB bw=1Gbps lat=40us
host n1 switch=sw0 cores=4 speed=2.5e9 l2=1MiB bw=1Gbps lat=40us
)");
  EXPECT_EQ(p.host_count(), 2u);
  const Route r = p.route(p.host_by_name("n0"), p.host_by_name("n1"));
  EXPECT_EQ(r.links.size(), 2u);
  EXPECT_DOUBLE_EQ(r.latency, 8e-5);
  EXPECT_DOUBLE_EQ(p.host(0).speed, 2.5e9);
  EXPECT_DOUBLE_EQ(p.host(0).l2_bytes, 1048576.0);
}

TEST(Parse, HierarchyWithParentSwitches) {
  const Platform p = parse_platform_string(R"(
switch root
switch cab0 parent=root bw=10Gbps lat=2us
switch cab1 parent=root bw=10Gbps lat=2us
host a switch=cab0 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=10us
host b switch=cab1 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=10us
)");
  EXPECT_EQ(p.route(p.host_by_name("a"), p.host_by_name("b")).links.size(), 4u);
}

TEST(Parse, ClusterDirective) {
  const Platform p = parse_platform_string(
      "cluster prefix=x nodes=4 cores=2 speed=1e9 l2=512KiB bw=1Gbps lat=50us\n");
  EXPECT_EQ(p.host_count(), 4u);
  EXPECT_EQ(p.host_by_name("x-3"), 3);
}

TEST(Parse, CabinetClusterDirective) {
  const Platform p = parse_platform_string(
      "cluster prefix=x nodes=8 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=50us "
      "cabinets=2 uplink_bw=10Gbps uplink_lat=2us\n");
  EXPECT_EQ(p.host_count(), 8u);
  EXPECT_EQ(p.switch_count(), 3u);
}

TEST(Parse, ExplicitLinkAndRoute) {
  const Platform p = parse_platform_string(R"(
host a cores=1 speed=1e9 l2=1MiB
host b cores=1 speed=1e9 l2=1MiB
link direct bw=10Gbps lat=1us
route a b links=direct
)");
  const Route fwd = p.route(p.host_by_name("a"), p.host_by_name("b"));
  const Route rev = p.route(p.host_by_name("b"), p.host_by_name("a"));
  EXPECT_EQ(fwd.links.size(), 1u);
  EXPECT_EQ(rev.links.size(), 1u);  // symmetric by default
}

TEST(Parse, LoopbackDirective) {
  const Platform p = parse_platform_string(
      "loopback bw=4GBps lat=100ns\nhost a cores=1 speed=1e9 l2=1MiB\n");
  EXPECT_DOUBLE_EQ(p.loopback_bandwidth(), 4e9);
  EXPECT_DOUBLE_EQ(p.loopback_latency(), 1e-7);
}

TEST(Parse, ErrorsCarryLineNumbers) {
  try {
    parse_platform_string("switch sw0\nbogus entity\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parse, UnknownSwitchReferenceFails) {
  EXPECT_THROW(
      parse_platform_string("host a switch=nope cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=1us\n"),
      ParseError);
}

TEST(Parse, MissingFieldFails) {
  EXPECT_THROW(parse_platform_string("host a switch=s cores=1\n"), ParseError);
}

// Semantic validation: a file that parses but describes an impossible
// machine fails with a typed ConfigError naming the offending token —
// not a TIR_ASSERT deep inside Platform, and never a silently-built
// platform that divides by zero mid-replay.
TEST(Parse, NegativeBandwidthIsAConfigError) {
  const char* text = "link l0 bw=-1Gbps lat=1us\n";
  try {
    parse_platform_string(text);
    FAIL() << "negative bandwidth accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bw=-1Gbps"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse_platform_string("loopback bw=-8bps lat=1ns\n"), ConfigError);
  EXPECT_THROW(parse_platform_string("link l0 bw=0bps lat=1us\n"), ConfigError);
}

TEST(Parse, NegativeLatencyIsAConfigError) {
  try {
    parse_platform_string("# comment\nlink l0 bw=1Gbps lat=-5us\n");
    FAIL() << "negative latency accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("lat=-5us"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse_platform_string("loopback bw=8Gbps lat=-1ns\n"), ConfigError);
  // Zero latency is a legitimate idealization and must keep parsing.
  EXPECT_NO_THROW(parse_platform_string("link l0 bw=1Gbps lat=0s\n"));
}

TEST(Parse, ZeroRateHostIsAConfigError) {
  try {
    parse_platform_string("host a cores=1 speed=0 l2=1MiB\n");
    FAIL() << "zero-rate host accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("speed=0"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse_platform_string("host a cores=1 speed=-2e9 l2=1MiB\n"), ConfigError);
  EXPECT_THROW(parse_platform_string("host a cores=0 speed=1e9 l2=1MiB\n"), ConfigError);
  EXPECT_THROW(parse_platform_string("cluster nodes=2 cores=1 speed=0 l2=1MiB bw=1Gbps lat=1us\n"),
               ConfigError);
  EXPECT_THROW(parse_platform_string("cluster nodes=0 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=1us\n"),
               ConfigError);
}

// A count beyond int must not wrap: nodes= used to build an empty cluster,
// cores= to trip an internal assertion and cabinets= to build a flat one.
void expect_oversized_count_rejected(const std::string& text, const std::string& field) {
  try {
    parse_platform_string(text);
    FAIL() << "accepted " << field;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Parse, OversizedNodeCountIsAConfigError) {
  expect_oversized_count_rejected(
      "# nodes\ncluster nodes=4000000000 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=1us\n",
      "nodes=4000000000");
}

TEST(Parse, OversizedCoreCountIsAConfigError) {
  expect_oversized_count_rejected(
      "# cores\ncluster nodes=2 cores=4000000000 speed=1e9 l2=1MiB bw=1Gbps lat=1us\n",
      "cores=4000000000");
  expect_oversized_count_rejected("# cores\nhost a cores=4000000000 speed=1e9 l2=1MiB\n",
                                  "cores=4000000000");
}

TEST(Parse, OversizedCabinetCountIsAConfigError) {
  expect_oversized_count_rejected(
      "# cabinets\ncluster nodes=2 cores=1 speed=1e9 l2=1MiB bw=1Gbps lat=1us "
      "cabinets=4000000000 uplink_bw=10Gbps uplink_lat=2us\n",
      "cabinets=4000000000");
}

TEST(Parse, DuplicateHostNameIsAConfigError) {
  const char* text =
      "host a cores=1 speed=1e9 l2=1MiB\n"
      "host a cores=2 speed=2e9 l2=1MiB\n";
  try {
    parse_platform_string(text);
    FAIL() << "duplicate host accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  // A cluster whose generated names collide with an explicit host is the
  // same mistake through a different door (caught by Platform::add_host).
  EXPECT_THROW(parse_platform_string("host n-0 cores=1 speed=1e9 l2=1MiB\n"
                                     "cluster prefix=n nodes=2 cores=1 speed=1e9 l2=1MiB "
                                     "bw=1Gbps lat=1us\n"),
               ConfigError);
}

TEST(ParseWrite, BordereauRoundTripsThroughText) {
  const Platform original = bordereau();
  const Platform copy = parse_platform_string(write_platform_string(original));
  ASSERT_EQ(copy.host_count(), original.host_count());
  ASSERT_EQ(copy.switch_count(), original.switch_count());
  EXPECT_DOUBLE_EQ(copy.loopback_bandwidth(), original.loopback_bandwidth());
  for (HostId h = 0; h < static_cast<HostId>(original.host_count()); h += 17) {
    EXPECT_EQ(copy.host(h).name, original.host(h).name);
    EXPECT_DOUBLE_EQ(copy.host(h).speed, original.host(h).speed);
    EXPECT_DOUBLE_EQ(copy.host(h).l2_bytes, original.host(h).l2_bytes);
  }
  // Routes must be metrically identical.
  const Route a = original.route(0, 42);
  const Route b = copy.route(0, 42);
  EXPECT_EQ(a.links.size(), b.links.size());
  EXPECT_NEAR(a.latency, b.latency, 1e-12);
}

TEST(ParseWrite, GrapheneHierarchyRoundTrips) {
  const Platform original = graphene();
  const Platform copy = parse_platform_string(write_platform_string(original));
  ASSERT_EQ(copy.switch_count(), original.switch_count());
  // A cross-cabinet route keeps its 6-link shape (host up, cab up, cab
  // down, host down + two uplink hops resolve to 4 links at depth 1).
  EXPECT_EQ(copy.route(0, 1).links.size(), original.route(0, 1).links.size());
  EXPECT_NEAR(copy.route(0, 1).latency, original.route(0, 1).latency, 1e-12);
  EXPECT_EQ(copy.route(0, 4).links.size(), original.route(0, 4).links.size());
}

// The perturbation seed is the whole value, decimal digits only, within 64
// bits: an out-of-range seed used to saturate silently to 2^64 - 1, and a
// leading blank or sign was accepted.
TEST(Parse, PerturbationSeedIsStrictDecimal) {
  EXPECT_EQ(PerturbationSpec::parse("seed=0").seed, 0u);
  EXPECT_EQ(PerturbationSpec::parse("seed=18446744073709551615").seed,
            18446744073709551615ULL);
  EXPECT_EQ(PerturbationSpec::parse("seed=42;link.bw=normal:0.1").seed, 42u);
  for (const char* bad : {"seed=18446744073709551616", "seed=99999999999999999999999",
                          "seed= 5", "seed=+5", "seed=-1", "seed=", "seed=5x", "seed=0x10"}) {
    try {
      PerturbationSpec::parse(bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("malformed seed"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace tir::platform
