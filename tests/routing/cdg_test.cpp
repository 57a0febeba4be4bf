#include "routing/cdg.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "routing/direction.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::routing {
namespace {

tree::CoordinatedTree m1Tree(const Topology& topo) {
  util::Rng rng(1);
  return tree::CoordinatedTree::build(topo,
                                      tree::TreePolicy::kM1SmallestFirst, rng);
}

TEST(Cdg, RingWithAllTurnsAllowedIsCyclic) {
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const CdgResult result = checkChannelDependencies(perms);
  EXPECT_FALSE(result.acyclic);
  ASSERT_GE(result.cycle.size(), 3u);
  // The witness is a real dependency cycle: consecutive channels chain and
  // every turn is allowed.
  for (std::size_t i = 0; i < result.cycle.size(); ++i) {
    const ChannelId c = result.cycle[i];
    const ChannelId n = result.cycle[(i + 1) % result.cycle.size()];
    EXPECT_EQ(topo.channelDst(c), topo.channelSrc(n));
    EXPECT_TRUE(perms.allowed(topo.channelDst(c), c, n));
  }
}

TEST(Cdg, RingWithUpDownRuleIsAcyclic) {
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  EXPECT_TRUE(checkChannelDependencies(perms).acyclic);
}

TEST(Cdg, TreeTopologyIsAcyclicEvenWithAllTurns) {
  // A tree has no cycles at all, so even the permissive rule is safe.
  const Topology topo = topo::star(8);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  EXPECT_TRUE(checkChannelDependencies(perms).acyclic);
}

TEST(Cdg, TorusWithAllTurnsAllowedIsCyclic) {
  const Topology topo = topo::torus(4, 4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  EXPECT_FALSE(checkChannelDependencies(perms).acyclic);
}

TEST(Cdg, UpDownIsAcyclicOnManyTopologies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const Topology topo = topo::randomIrregular(
        30, {.maxPorts = static_cast<unsigned>(3 + seed % 4)}, rng);
    TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                          upDownTurnSet());
    EXPECT_TRUE(checkChannelDependencies(perms).acyclic) << "seed " << seed;
  }
}

/// One bit per channel, alive except `dead`.
std::vector<std::uint64_t> aliveExcept(const Topology& topo,
                                       std::initializer_list<ChannelId> dead) {
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  for (ChannelId c = 0; c < topo.channelCount(); ++c) {
    alive[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  for (const ChannelId c : dead) alive[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
  return alive;
}

TEST(Cdg, MaskedCheckIgnoresCycleThroughDeadChannels) {
  // With every turn allowed, a ring's only dependency cycles are its two
  // rotations.  Killing link 0-1 breaks both, so the masked check must
  // find none even though the rule still allows every turn on it.
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const ChannelId c01 = topo.channel(0, 1);
  const ChannelId c10 = topo.channel(1, 0);
  ASSERT_FALSE(checkChannelDependencies(perms).acyclic);
  EXPECT_TRUE(
      checkChannelDependencies(perms, aliveExcept(topo, {c01, c10})).acyclic);
}

TEST(Cdg, MaskedCheckStillReportsLiveCycleWithWitness) {
  // Killing only channel 0->1 leaves the other rotation alive: the check
  // must report it, with a witness made of alive channels only.
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const ChannelId c01 = topo.channel(0, 1);
  const CdgResult result =
      checkChannelDependencies(perms, aliveExcept(topo, {c01}));
  EXPECT_FALSE(result.acyclic);
  ASSERT_EQ(result.cycle.size(), 5u);
  for (std::size_t i = 0; i < result.cycle.size(); ++i) {
    const ChannelId c = result.cycle[i];
    const ChannelId n = result.cycle[(i + 1) % result.cycle.size()];
    EXPECT_NE(c, c01);
    EXPECT_EQ(topo.channelDst(c), topo.channelSrc(n));
    EXPECT_TRUE(perms.allowed(topo.channelDst(c), c, n));
  }
}

TEST(ChannelReachable, FollowsAllowedTurnsOnly) {
  const Topology topo = topo::line(4);  // 0-1-2-3
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const ChannelId c01 = topo.channel(0, 1);
  const ChannelId c12 = topo.channel(1, 2);
  const ChannelId c23 = topo.channel(2, 3);
  const ChannelId c10 = topo.channel(1, 0);
  EXPECT_TRUE(channelReachable(perms, c01, c12));
  EXPECT_TRUE(channelReachable(perms, c01, c23));
  // U-turn exclusion means the reverse channel is unreachable on a line.
  EXPECT_FALSE(channelReachable(perms, c01, c10));
  // Self-reachability requires a genuine cycle; a line has none.
  EXPECT_FALSE(channelReachable(perms, c01, c01));
}

TEST(ChannelReachable, SelfReachableOnPermissiveRing) {
  const Topology topo = topo::ring(4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const ChannelId c01 = topo.channel(0, 1);
  EXPECT_TRUE(channelReachable(perms, c01, c01));
}

}  // namespace
}  // namespace downup::routing
