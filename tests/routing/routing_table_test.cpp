#include "routing/routing_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "routing/direction.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::routing {
namespace {

tree::CoordinatedTree m1Tree(const Topology& topo) {
  util::Rng rng(1);
  return tree::CoordinatedTree::build(topo,
                                      tree::TreePolicy::kM1SmallestFirst, rng);
}

TEST(RoutingTable, LineDistancesMatchGraphDistances) {
  const Topology topo = topo::line(6);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId s = 0; s < 6; ++s) {
    for (NodeId d = 0; d < 6; ++d) {
      EXPECT_EQ(table.distance(s, d), (s > d ? s - d : d - s));
    }
  }
  EXPECT_TRUE(table.allPairsConnected());
}

TEST(RoutingTable, DistanceToSelfIsZero) {
  const Topology topo = topo::ring(4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(table.distance(v, v), 0u);
}

TEST(RoutingTable, UpDownOnRingForcesDetours) {
  // Ring 0-1-2-3-4-0 with up*/down* rooted at 0: 2 -> 4 cannot take the
  // 2-hop route (its second hop is a prohibited down->up turn) and must go
  // up through the root instead (3 hops).
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_TRUE(table.allPairsConnected());
  EXPECT_EQ(table.distance(2, 4), 3u);
  bool sawStretch = false;
  for (NodeId s = 0; s < 5; ++s) {
    const auto graphDist = topo::bfsDistances(topo, s);
    for (NodeId d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_GE(table.distance(s, d), graphDist[d]);
      if (table.distance(s, d) > graphDist[d]) sawStretch = true;
    }
  }
  EXPECT_TRUE(sawStretch) << "expected at least one non-minimal legal path";
}

TEST(RoutingTable, PermissiveDistancesEqualGraphDistances) {
  util::Rng rng(5);
  const Topology topo = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    const auto dist = topo::bfsDistances(topo, s);
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s != d) {
        EXPECT_EQ(table.distance(s, d), dist[d]);
      }
    }
  }
}

TEST(RoutingTable, FirstChannelsAreMinimalStarts) {
  const Topology topo = topo::ring(6);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  std::vector<ChannelId> firsts;
  table.firstChannels(0, 3, firsts);  // both ways around are 3 hops
  EXPECT_EQ(firsts.size(), 2u);
  for (ChannelId c : firsts) {
    EXPECT_EQ(topo.channelSrc(c), 0u);
    EXPECT_EQ(table.channelSteps(3, c), 3u);
  }

  firsts.clear();
  table.firstChannels(0, 1, firsts);  // unique shortest
  ASSERT_EQ(firsts.size(), 1u);
  EXPECT_EQ(topo.channelDst(firsts[0]), 1u);
}

TEST(RoutingTable, FirstChannelsEmptyForSelf) {
  const Topology topo = topo::ring(4);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  std::vector<ChannelId> firsts;
  table.firstChannels(2, 2, firsts);
  EXPECT_TRUE(firsts.empty());
}

TEST(RoutingTable, NextChannelsDecrementStepsByOne) {
  util::Rng rng(9);
  const Topology topo = topo::randomIrregular(20, {.maxPorts = 4}, rng);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);

  std::vector<ChannelId> firsts;
  std::vector<ChannelId> nexts;
  for (NodeId s = 0; s < topo.nodeCount(); ++s) {
    for (NodeId d = 0; d < topo.nodeCount(); ++d) {
      if (s == d) continue;
      firsts.clear();
      table.firstChannels(s, d, firsts);
      ASSERT_FALSE(firsts.empty()) << s << " to " << d;
      for (ChannelId c : firsts) {
        // Walk one full minimal path greedily and confirm steps decrease
        // by exactly one per hop until the destination is reached.
        ChannelId current = c;
        std::uint16_t remaining = table.channelSteps(d, current);
        while (topo.channelDst(current) != d) {
          nexts.clear();
          table.nextChannels(current, d, nexts);
          ASSERT_FALSE(nexts.empty());
          for (ChannelId n : nexts) {
            EXPECT_EQ(table.channelSteps(d, n), remaining - 1);
            EXPECT_TRUE(perms.allowed(topo.channelDst(current), current, n));
          }
          current = nexts.front();
          --remaining;
        }
        EXPECT_EQ(remaining, 1u);
      }
    }
  }
}

TEST(RoutingTable, NextChannelsEmptyAtDestination) {
  const Topology topo = topo::line(3);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  std::vector<ChannelId> nexts;
  table.nextChannels(topo.channel(0, 1), 1, nexts);
  EXPECT_TRUE(nexts.empty());
}

TEST(RoutingTable, DetectsDisconnection) {
  // Block every turn except same-direction: on a star with up*/down*
  // everything still works (all paths are up then down)...
  const Topology topo = topo::star(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable okTable = RoutingTable::build(perms);
  EXPECT_TRUE(okTable.allPairsConnected());

  // ...but blocking the hub's turning ability disconnects leaf pairs.
  TurnPermissions broken(topo, classifyUpDown(topo, m1Tree(topo)),
                         upDownTurnSet());
  broken.blockAt(0, Dir::kLuTree, Dir::kRdTree);
  const RoutingTable brokenTable = RoutingTable::build(broken);
  EXPECT_FALSE(brokenTable.allPairsConnected());
  EXPECT_EQ(brokenTable.distance(1, 2), kNoPath);
  EXPECT_NE(brokenTable.distance(1, 0), kNoPath);
}

TEST(RoutingTable, NextChannelsAnyTurnIgnoresTurnRuleOnly) {
  // Ring 0-1-2-3-4 with up*/down*: 2 -> 4 has legal distance 3 (via the
  // root) because 3 -> 4 would be a prohibited down->up turn.  The
  // any-turn relation follows the same legal-steps potential, so it offers
  // exactly the outputs one potential step closer — including ones the turn
  // rule forbids.
  const Topology topo = topo::ring(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);

  const ChannelId c12 = topo.channel(1, 2);
  std::vector<ChannelId> legal;
  std::vector<ChannelId> any;
  table.nextChannels(c12, 0, legal);
  table.nextChannelsAnyTurn(c12, 0, any);
  // Toward the root both relations agree here.
  for (ChannelId c : any) {
    EXPECT_EQ(table.channelSteps(0, c), table.channelSteps(0, c12) - 1);
    EXPECT_NE(c, Topology::reverseChannel(c12));
  }
  // The any-turn set is always a superset of the legal set.
  for (ChannelId c : legal) {
    EXPECT_NE(std::find(any.begin(), any.end(), c), any.end());
  }

  // On a richer network the superset is strict somewhere: some
  // potential-decrementing successor is turn-prohibited (it lies on a legal
  // path for packets that arrive from a different direction).
  util::Rng rng(6);
  const Topology big = topo::randomIrregular(24, {.maxPorts = 4}, rng);
  TurnPermissions bigPerms(big, classifyUpDown(big, m1Tree(big)),
                           upDownTurnSet());
  const RoutingTable bigTable = RoutingTable::build(bigPerms);
  bool strictSomewhere = false;
  for (ChannelId in = 0; in < big.channelCount() && !strictSomewhere; ++in) {
    for (NodeId dst = 0; dst < big.nodeCount(); ++dst) {
      if (big.channelDst(in) == dst || big.channelSrc(in) == dst) continue;
      legal.clear();
      any.clear();
      bigTable.nextChannels(in, dst, legal);
      bigTable.nextChannelsAnyTurn(in, dst, any);
      EXPECT_GE(any.size(), legal.size());
      if (any.size() > legal.size()) {
        strictSomewhere = true;
        break;
      }
    }
  }
  EXPECT_TRUE(strictSomewhere);
}

TEST(RoutingTable, NextChannelsAnyTurnEmptyAtDestination) {
  const Topology topo = topo::line(3);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  const RoutingTable table = RoutingTable::build(perms);
  std::vector<ChannelId> any;
  table.nextChannelsAnyTurn(topo.channel(0, 1), 1, any);
  EXPECT_TRUE(any.empty());
}

TEST(RoutingTable, AveragePathLengthOnCompleteGraph) {
  const Topology topo = topo::complete(5);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const RoutingTable table = RoutingTable::build(perms);
  EXPECT_DOUBLE_EQ(table.averagePathLength(), 1.0);
}

// rebuildDead only removes channels.  A mask that revives one must be
// refused in every build type, not only under a debug assert: sharing the
// previous rows would leave the revived channel unrouted.
TEST(RoutingTable, RebuildDeadRefusesRevivedChannel) {
  const Topology topo = topo::ring(6);
  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        upDownTurnSet());
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  const auto set = [&alive](ChannelId c, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    alive[c >> 6] = on ? (alive[c >> 6] | bit) : (alive[c >> 6] & ~bit);
  };
  for (ChannelId c = 0; c < topo.channelCount(); ++c) set(c, true);
  set(0, false);  // link 0 dead in the previous table
  set(1, false);
  const RoutingTable degraded = RoutingTable::build(perms, nullptr, alive);
  EXPECT_FALSE(degraded.channelAlive(0));
  EXPECT_TRUE(degraded.channelAlive(2));

  set(0, true);  // link 0 revives while link 2 dies
  set(1, true);
  set(4, false);
  set(5, false);
  EXPECT_FALSE(RoutingTable::rebuildDead(degraded, nullptr, alive).has_value());
  EXPECT_EQ(degraded.dirtyDestinationCount(alive), topo.nodeCount());
  // The empty mask means every channel alive, so it revives link 0 too.
  EXPECT_FALSE(RoutingTable::rebuildDead(degraded, nullptr, {}).has_value());

  set(0, false);  // a pure removal is accepted
  set(1, false);
  const std::optional<RoutingTable> removed =
      RoutingTable::rebuildDead(degraded, nullptr, alive);
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(removed->identicalTo(RoutingTable::build(perms, nullptr, alive)));
}

}  // namespace
}  // namespace downup::routing
