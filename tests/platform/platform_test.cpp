#include "platform/platform.hpp"

#include <gtest/gtest.h>

namespace tir::platform {
namespace {

TEST(Platform, AddAndLookupHost) {
  Platform p;
  const HostId h = p.add_host("n0", 4, 2e9, 1 << 20);
  EXPECT_EQ(p.host(h).name, "n0");
  EXPECT_EQ(p.host(h).cores, 4);
  EXPECT_EQ(p.host_by_name("n0"), h);
  EXPECT_THROW(p.host_by_name("nope"), Error);
}

TEST(Platform, DuplicateHostNameRejected) {
  Platform p;
  p.add_host("n0", 1, 1e9, 1 << 20);
  EXPECT_THROW(p.add_host("n0", 1, 1e9, 1 << 20), Error);
}

TEST(Platform, PlaceRanksOneRankPerNode) {
  Platform p;
  for (int h = 0; h < 4; ++h) p.add_host("n" + std::to_string(h), 1, 1e9, 1 << 20);
  EXPECT_EQ(place_ranks(p, 4), (std::vector<HostId>{0, 1, 2, 3}));
  const std::vector<HostId> wrap = place_ranks(p, 6);
  EXPECT_EQ(wrap[4], 0);
  EXPECT_EQ(wrap[5], 1);
}

TEST(Platform, PlaceRanksOnAHostlessPlatformIsAConfigError) {
  Platform p;
  p.add_switch("root");
  EXPECT_THROW(place_ranks(p, 4), ConfigError);
}

TEST(Platform, LoopbackRoute) {
  Platform p;
  const HostId h = p.add_host("n0", 1, 1e9, 1 << 20);
  p.set_loopback(5e9, 1e-7);
  const Route r = p.route(h, h);
  EXPECT_TRUE(r.links.empty());
  EXPECT_DOUBLE_EQ(r.latency, 1e-7);
}

TEST(Platform, FlatTreeRouteHasUpAndDownLinks) {
  Platform p;
  const SwitchId sw = p.add_switch("sw");
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  p.attach(a, sw, 1e8, 1e-5);
  p.attach(b, sw, 1e8, 1e-5);
  const Route r = p.route(a, b);
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_EQ(r.links[0], p.host(a).up);
  EXPECT_EQ(r.links[1], p.host(b).down);
  EXPECT_DOUBLE_EQ(r.latency, 2e-5);
}

TEST(Platform, HierarchicalRouteCrossesUplinks) {
  Platform p;
  const SwitchId root = p.add_switch("root");
  const SwitchId c0 = p.add_switch("c0", root, 1e9, 2e-6);
  const SwitchId c1 = p.add_switch("c1", root, 1e9, 2e-6);
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  p.attach(a, c0, 1e8, 1e-5);
  p.attach(b, c1, 1e8, 1e-5);
  const Route r = p.route(a, b);
  // a_up, c0_up, c1_down, b_down
  ASSERT_EQ(r.links.size(), 4u);
  EXPECT_EQ(r.links[0], p.host(a).up);
  EXPECT_EQ(r.links[1], p.switch_at(c0).up);
  EXPECT_EQ(r.links[2], p.switch_at(c1).down);
  EXPECT_EQ(r.links[3], p.host(b).down);
  EXPECT_DOUBLE_EQ(r.latency, 2e-5 + 4e-6);
}

TEST(Platform, SameCabinetRouteSkipsUplinks) {
  Platform p;
  const SwitchId root = p.add_switch("root");
  const SwitchId c0 = p.add_switch("c0", root, 1e9, 2e-6);
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  p.attach(a, c0, 1e8, 1e-5);
  p.attach(b, c0, 1e8, 1e-5);
  const Route r = p.route(a, b);
  EXPECT_EQ(r.links.size(), 2u);
}

TEST(Platform, ExplicitRouteOverridesTree) {
  Platform p;
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  const LinkId l = p.add_link("direct", 1e9, 5e-6);
  p.add_route(a, b, {l});
  const Route r = p.route(a, b);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.links[0], l);
  EXPECT_DOUBLE_EQ(r.latency, 5e-6);
}

TEST(Platform, UnroutableHostsThrow) {
  Platform p;
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  EXPECT_THROW(p.route(a, b), SimError);
}

TEST(Platform, DisjointTreesThrow) {
  Platform p;
  const SwitchId s0 = p.add_switch("s0");
  const SwitchId s1 = p.add_switch("s1");
  const HostId a = p.add_host("a", 1, 1e9, 1 << 20);
  const HostId b = p.add_host("b", 1, 1e9, 1 << 20);
  p.attach(a, s0, 1e8, 1e-5);
  p.attach(b, s1, 1e8, 1e-5);
  EXPECT_THROW(p.route(a, b), SimError);
}

}  // namespace
}  // namespace tir::platform
