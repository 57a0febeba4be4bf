// Reconfigurator: rebuilding the coordinated tree + DOWN/UP rule on degraded
// topologies — connectivity and deadlock freedom after single link removals,
// partitions and node deaths, and host-numbering equivalence with a routing
// built directly on the degraded graph.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "util/span_recorder.hpp"
#include "util/thread_pool.hpp"

namespace downup::fault {
namespace {

using routing::kNoPath;

topo::Topology makeSan() {
  util::Rng rng(2024);
  return topo::randomIrregular(24, {.maxPorts = 4}, rng);
}

/// Two triangles {0,1,2} and {3,4,5} joined by the bridge link 2-3.
/// Links in insertion order: 0:(0,1) 1:(1,2) 2:(0,2) 3:(3,4) 4:(4,5)
/// 5:(3,5) 6:(2,3).
topo::Topology twoTriangles() {
  topo::Topology topo(6);
  topo.addLink(0, 1);
  topo.addLink(1, 2);
  topo.addLink(0, 2);
  topo.addLink(3, 4);
  topo.addLink(4, 5);
  topo.addLink(3, 5);
  topo.addLink(2, 3);
  return topo;
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

/// Link mask that cuts each hub and its neighbours off from the rest of
/// the topology (and from each other's group).
std::vector<std::uint8_t> cutOffHubs(const topo::Topology& topo,
                                     std::initializer_list<topo::NodeId> hubs) {
  std::vector<unsigned> group(topo.nodeCount(), 0);
  unsigned next = 0;
  for (const topo::NodeId hub : hubs) {
    ++next;
    group[hub] = next;
    for (const topo::NodeId w : topo.neighbors(hub)) group[w] = next;
  }
  auto linksUp = allAlive(topo.linkCount());
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (group[a] != group[b]) linksUp[l] = 0;
  }
  return linksUp;
}

TEST(ReconfiguratorTest, HealthyRebuildMatchesDirectBuild) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);
  const ReconfigOutcome out =
      reconf.rebuild(allAlive(topo.linkCount()), allAlive(topo.nodeCount()));

  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.components, 1u);
  EXPECT_EQ(out.aliveNodes, topo.nodeCount());
  EXPECT_EQ(out.aliveLinks, topo.linkCount());
  EXPECT_EQ(out.unreachablePairs, 0u);
  EXPECT_GT(out.averagePathLength, 0.0);

  // With everything alive the compacted sub-topology is the host topology,
  // so the merged table must match a direct M1 build channel for channel.
  util::Rng treeRng(0);
  const auto ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing direct = core::buildDownUp(topo, ct);
  for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
    for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
      EXPECT_EQ(out.table->channelSteps(dst, c),
                direct.table().channelSteps(dst, c));
    }
  }
}

TEST(ReconfiguratorTest, EverySingleLinkFailureRebuildsSafely) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);
  const auto nodesUp = allAlive(topo.nodeCount());
  for (topo::LinkId dead = 0; dead < topo.linkCount(); ++dead) {
    auto linksUp = allAlive(topo.linkCount());
    linksUp[dead] = 0;
    const ReconfigOutcome out = reconf.rebuild(linksUp, nodesUp);

    EXPECT_TRUE(out.deadlockFree) << "link " << dead;
    EXPECT_TRUE(out.componentsConnected) << "link " << dead;
    EXPECT_EQ(out.aliveLinks, topo.linkCount() - 1);
    if (out.components == 1) {
      EXPECT_EQ(out.unreachablePairs, 0u) << "link " << dead;
    }
    // The dead link's channels must never be offered: kNoPath steps for
    // every destination and absent from every first-hop candidate row.
    for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
      EXPECT_EQ(out.table->channelSteps(dst, 2 * dead), kNoPath);
      EXPECT_EQ(out.table->channelSteps(dst, 2 * dead + 1), kNoPath);
      for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
        if (src == dst) continue;
        for (topo::ChannelId c : out.table->firstChannels(src, dst)) {
          EXPECT_NE(topo::Topology::linkOf(c), dead);
        }
      }
    }
  }
}

// The RebuildVerdictsArePinned* tests pin the verdicts, counts, mean path
// length (bit for bit) and table fingerprint of a full rebuild to the
// values recorded when rebuild() still verified each component with
// verifyRouting: the acyclicity check plus the table's reachability
// summary must report exactly the same outcome.
TEST(ReconfiguratorTest, RebuildVerdictsArePinnedForSingleLinkFailure) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  auto linksUp = allAlive(topo.linkCount());
  linksUp[6] = 0;  // 2-14: the SAN stays connected
  const ReconfigOutcome single =
      reconf.rebuild(linksUp, allAlive(topo.nodeCount()));
  EXPECT_EQ(single.components, 1u);
  EXPECT_TRUE(single.deadlockFree);
  EXPECT_TRUE(single.componentsConnected);
  EXPECT_EQ(single.unreachablePairs, 0u);
  EXPECT_EQ(single.averagePathLength, 0x1.58cfc4a33f129p+1);
  EXPECT_EQ(single.table->fingerprint(), 0xa0103f819b41591eull);
}

TEST(ReconfiguratorTest, RebuildVerdictsArePinnedForPartition) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  // Cut switch 11 and its neighbours off from the other 19 switches.
  std::vector<bool> side(topo.nodeCount(), false);
  side[11] = true;
  for (const topo::NodeId w : topo.neighbors(11)) side[w] = true;
  auto linksUp = allAlive(topo.linkCount());
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (side[a] != side[b]) linksUp[l] = 0;
  }
  const ReconfigOutcome split =
      reconf.rebuild(linksUp, allAlive(topo.nodeCount()));
  EXPECT_EQ(split.components, 2u);
  EXPECT_TRUE(split.deadlockFree);
  EXPECT_TRUE(split.componentsConnected);
  EXPECT_EQ(split.unreachablePairs, 2u * 5 * 19);
  EXPECT_EQ(split.averagePathLength, 0x1.33fa57b0cbab2p+1);
  EXPECT_EQ(split.table->fingerprint(), 0xef807068818d38d1ull);
}

// A dead switch drops out of every pair count: the 23 survivors form one
// component and only their 23*22 ordered pairs enter the mean path length.
TEST(ReconfiguratorTest, RebuildVerdictsArePinnedForSwitchDeath) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  auto nodesUp = allAlive(topo.nodeCount());
  nodesUp[11] = 0;  // takes its four links with it
  const ReconfigOutcome dead =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  EXPECT_EQ(dead.components, 1u);
  EXPECT_EQ(dead.aliveNodes, 23u);
  EXPECT_EQ(dead.aliveLinks, topo.linkCount() - 4);
  EXPECT_TRUE(dead.deadlockFree);
  EXPECT_TRUE(dead.componentsConnected);
  EXPECT_EQ(dead.unreachablePairs, 0u);
  EXPECT_EQ(dead.averagePathLength, 0x1.48590b21642c8p+1);
  EXPECT_EQ(dead.table->fingerprint(), 0x21cff00389b9be3bull);
}

// Three routed components (14, 5 and 5 switches).  The mean path is the
// host table's integer distance sum over its reachable pairs; the pinned
// value was recorded when each component had its own table and the mean
// was the pair-weighted mean of the component means.
TEST(ReconfiguratorTest, RebuildVerdictsArePinnedForThreeComponents) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  const ReconfigOutcome split =
      reconf.rebuild(cutOffHubs(topo, {11, 0}), allAlive(topo.nodeCount()));
  EXPECT_EQ(split.components, 3u);
  EXPECT_EQ(split.aliveNodes, 24u);
  EXPECT_EQ(split.aliveLinks, 29u);
  EXPECT_TRUE(split.ok());
  EXPECT_EQ(split.unreachablePairs, 330u);  // 2*14*10 + 2*5*5
  EXPECT_EQ(split.averagePathLength, 0x1.36c657a3bf6c6p+1);
  EXPECT_EQ(split.table->fingerprint(), 0xb612d9f4fc157047ull);
}

// A full rebuild builds one table over the host topology, so a 256-switch
// fabric crosses the parallel cutover (kParallelBuildMinDestinations) even
// when every component is smaller: the pooled build must fan out and still
// produce the serial table.
TEST(ReconfiguratorTest, PooledPartitionRebuildMatchesSerialRebuild) {
  util::Rng rng(1);
  const topo::Topology topo =
      topo::randomIrregular(256, {.maxPorts = 4}, rng);
  const auto linksUp = cutOffHubs(topo, {17});
  const auto nodesUp = allAlive(topo.nodeCount());

  const ReconfigOutcome serial = Reconfigurator(topo).rebuild(linksUp, nodesUp);
  util::ThreadPool pool(4);
  util::SpanRecorder spans;
  Reconfigurator pooledReconf(topo, &pool);
  pooledReconf.setSpans(&spans);
  const ReconfigOutcome pooled = pooledReconf.rebuild(linksUp, nodesUp);

  EXPECT_EQ(serial.components, 2u);
  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.unreachablePairs, serial.unreachablePairs);
  EXPECT_EQ(pooled.averagePathLength, serial.averagePathLength);
  EXPECT_TRUE(pooled.table->identicalTo(*serial.table));
  EXPECT_EQ(serial.table->fingerprint(), 0x530ebe5673411e7cull);
  EXPECT_EQ(pooled.table->fingerprint(), serial.table->fingerprint());

  bool fannedOut = false;
  for (const auto& s : spans.snapshot()) {
    if (std::strcmp(s.name, "table_build") != 0) continue;
    for (std::uint8_t a = 0; a < s.argCount; ++a) {
      if (std::strcmp(s.args[a].key, "parallel") == 0) {
        fannedOut = s.args[a].value == 1.0;
      }
    }
  }
  EXPECT_TRUE(fannedOut);
}

TEST(ReconfiguratorTest, DegradedRebuildMatchesDirectDegradedBuild) {
  const topo::Topology topo = makeSan();
  const Reconfigurator reconf(topo);

  // Find a link whose removal keeps one component, fail it via the
  // reconfigurator, and cross-check against a routing built directly on a
  // hand-made degraded topology (same node ids, alive links in ascending
  // host order — the reconfigurator's construction order).
  for (topo::LinkId dead = 0; dead < topo.linkCount(); ++dead) {
    auto linksUp = allAlive(topo.linkCount());
    linksUp[dead] = 0;
    const ReconfigOutcome out =
        reconf.rebuild(linksUp, allAlive(topo.nodeCount()));
    if (out.components != 1) continue;

    topo::Topology degraded(topo.nodeCount());
    std::vector<topo::LinkId> subToHost;
    for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
      if (l == dead) continue;
      const auto [a, b] = topo.linkEnds(l);
      degraded.addLink(a, b);
      subToHost.push_back(l);
    }
    util::Rng treeRng(0);
    const auto ct = tree::CoordinatedTree::build(
        degraded, tree::TreePolicy::kM1SmallestFirst, treeRng);
    const routing::Routing direct = core::buildDownUp(degraded, ct);

    for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
      for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
        EXPECT_EQ(out.table->distance(src, dst),
                  direct.table().distance(src, dst));
      }
    }
    for (topo::NodeId dst = 0; dst < topo.nodeCount(); ++dst) {
      for (topo::ChannelId sub = 0; sub < degraded.channelCount(); ++sub) {
        const topo::ChannelId host = 2 * subToHost[sub >> 1] + (sub & 1);
        EXPECT_EQ(out.table->channelSteps(dst, host),
                  direct.table().channelSteps(dst, sub));
      }
    }
    return;  // one non-bridge link exercised is enough
  }
  FAIL() << "every link of the 24-switch SAN is a bridge?";
}

TEST(ReconfiguratorTest, BridgeFailureSplitsIntoRoutedComponents) {
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto linksUp = allAlive(topo.linkCount());
  linksUp[6] = 0;  // the 2-3 bridge
  const ReconfigOutcome out = reconf.rebuild(linksUp, allAlive(6));

  EXPECT_TRUE(out.ok());  // each component is connected and deadlock-free
  EXPECT_EQ(out.components, 2u);
  EXPECT_EQ(out.aliveNodes, 6u);
  EXPECT_EQ(out.aliveLinks, 6u);
  // All 3*3 ordered pairs across the cut, both directions.
  EXPECT_EQ(out.unreachablePairs, 18u);
  for (topo::NodeId src = 0; src < 6; ++src) {
    for (topo::NodeId dst = 0; dst < 6; ++dst) {
      if (src == dst) continue;
      const bool sameSide = (src < 3) == (dst < 3);
      EXPECT_EQ(out.table->distance(src, dst) != kNoPath, sameSide)
          << src << " -> " << dst;
    }
  }
}

TEST(ReconfiguratorTest, NodeDeathKillsIncidentLinksAndItsRoutes) {
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto nodesUp = allAlive(topo.nodeCount());
  nodesUp[3] = 0;  // takes links 3-4, 3-5 and the bridge 2-3 with it
  const ReconfigOutcome out = reconf.rebuild(allAlive(topo.linkCount()),
                                             nodesUp);

  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.components, 2u);  // {0,1,2} and {4,5}
  EXPECT_EQ(out.aliveNodes, 5u);
  EXPECT_EQ(out.aliveLinks, 4u);
  // 5*4 ordered alive pairs minus 3*2 within the triangle and 2*1 within
  // the pair.
  EXPECT_EQ(out.unreachablePairs, 12u);
  for (topo::NodeId v = 0; v < 6; ++v) {
    if (v == 3) continue;
    EXPECT_EQ(out.table->distance(v, 3), kNoPath);
    EXPECT_EQ(out.table->distance(3, v), kNoPath);
  }
  EXPECT_NE(out.table->distance(4, 5), kNoPath);
  EXPECT_NE(out.table->distance(0, 2), kNoPath);
}

TEST(ReconfiguratorTest, IsolatedSurvivorCountsAsComponent) {
  // Killing nodes 4 and 5 leaves node 3 alive but linkless: a singleton
  // component with no routing, unreachable from the triangle.
  const topo::Topology topo = twoTriangles();
  const Reconfigurator reconf(topo);
  auto nodesUp = allAlive(topo.nodeCount());
  nodesUp[4] = 0;
  nodesUp[5] = 0;
  auto linksUp = allAlive(topo.linkCount());
  linksUp[6] = 0;  // bridge also down: node 3 fully cut off
  const ReconfigOutcome out = reconf.rebuild(linksUp, nodesUp);

  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.components, 2u);  // {0,1,2} and the singleton {3}
  EXPECT_EQ(out.aliveNodes, 4u);
  EXPECT_EQ(out.aliveLinks, 3u);
  EXPECT_EQ(out.unreachablePairs, 6u);  // 3 triangle nodes x {3}, both ways
  for (topo::NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(out.table->distance(v, 3), kNoPath);
    EXPECT_EQ(out.table->distance(3, v), kNoPath);
  }
}

}  // namespace
}  // namespace downup::fault
