// Switch arbitration and bandwidth-limit behaviour: one flit per physical
// channel per cycle, one per ejection port per cycle, competing flows on a
// shared link, end-of-phase credit return, and the measurement-timeline
// feature.
#include <gtest/gtest.h>

#include "routing/updown.hpp"
#include "sim/engine.hpp"
#include "topology/generate.hpp"

namespace downup::sim {
namespace {

using routing::Routing;
using topo::NodeId;
using topo::Topology;
using tree::CoordinatedTree;
using tree::TreePolicy;

Routing updownOn(const Topology& topo) {
  util::Rng rng(1);
  const CoordinatedTree ct =
      CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
  return routing::buildUpDown(topo, ct);
}

SimConfig baseConfig() {
  SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 0;
  config.measureCycles = 100000;
  return config;
}

TEST(Arbitration, EjectionPortSerializesTwoArrivals) {
  // Star: 1 and 2 both send a 16-flit packet to 3.  Both routes share only
  // the ejection port at 3 after the hub, so the second packet finishes
  // roughly one serialization time after the first.
  const Topology topo = topo::star(4);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  WormholeNetwork net(routing.table(), traffic, 0.0, baseConfig());
  const PacketId a = net.injectPacket(1, 3);
  const PacketId b = net.injectPacket(2, 3);
  for (int i = 0; i < 2000 && net.packetsEjected() < 2; ++i) net.step();
  ASSERT_EQ(net.packetsEjected(), 2u);
  const auto ejectA = net.packetEjectTime(a);
  const auto ejectB = net.packetEjectTime(b);
  const auto gap = ejectA > ejectB ? ejectA - ejectB : ejectB - ejectA;
  // Wormhole: the loser waits for the winner's whole worm to pass the hub
  // output channel, so the gap is at least one packet time.
  EXPECT_GE(gap, 16u);
  EXPECT_LE(gap, 48u);
}

TEST(Arbitration, SharedChannelBandwidthIsSplitFairly) {
  // Line 0-1-2: nodes 0 and 1 both flood node 2; the link 1->2 is the
  // shared bottleneck.  Over a long window both flows should get a
  // comparable share.  With one VC, output arbitration never chooses here:
  // link 1->2 has one owner at a time, so VC allocation alone decides which
  // flow holds it next.  The 9000-cycle window outlasts both 200-packet
  // backlogs (6400 flits over one link), so the share checks that neither
  // flow is stranded, not how the link is split while both are queued.
  const Topology topo = topo::line(3);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config = baseConfig();
  WormholeNetwork net(routing.table(), traffic, 0.0, config);

  // Keep both source queues saturated manually.
  std::uint64_t ejectedFrom0 = 0;
  std::uint64_t ejectedFrom1 = 0;
  std::vector<PacketId> from0;
  std::vector<PacketId> from1;
  for (int round = 0; round < 200; ++round) {
    from0.push_back(net.injectPacket(0, 2));
    from1.push_back(net.injectPacket(1, 2));
  }
  for (int i = 0; i < 9000; ++i) net.step();
  for (PacketId pid : from0) {
    if (net.packetEjectTime(pid) != WormholeNetwork::kNeverEjected) {
      ++ejectedFrom0;
    }
  }
  for (PacketId pid : from1) {
    if (net.packetEjectTime(pid) != WormholeNetwork::kNeverEjected) {
      ++ejectedFrom1;
    }
  }
  ASSERT_GT(ejectedFrom0 + ejectedFrom1, 100u);
  const double share = static_cast<double>(ejectedFrom0) /
                       static_cast<double>(ejectedFrom0 + ejectedFrom1);
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
}

TEST(Arbitration, FreedSlotIsCreditedFromTheNextCycle) {
  // Line 0-1-2: a 16-flit packet 0->2 and one 2->0, injected together.  A
  // buffer slot freed by a send is credited upstream only at the end of
  // the transfer phase, so its feeder can refill it one cycle later at the
  // earliest.  The 2->0 worm crosses channel 3 (2->1) and then channel 1
  // (1->0); its downstream channel has the lower id and moves first, so a
  // credit returned at once would let channel 3 send into the slot in the
  // same cycle and eject that packet at 37 (depth 1) and 22 (depth 2).
  const Topology topo = topo::line(3);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  struct Case {
    std::uint32_t depth;
    std::uint64_t ejectAt;
  };
  for (const Case c : {Case{1, 52}, Case{2, 29}, Case{3, 22}}) {
    SimConfig config = baseConfig();
    config.bufferDepthFlits = c.depth;
    WormholeNetwork net(routing.table(), traffic, 0.0, config);
    const PacketId east = net.injectPacket(0, 2);
    const PacketId west = net.injectPacket(2, 0);
    for (int i = 0; i < 1000 && net.packetsEjected() < 2; ++i) net.step();
    EXPECT_EQ(net.packetEjectTime(east), c.ejectAt) << "depth " << c.depth;
    EXPECT_EQ(net.packetEjectTime(west), c.ejectAt) << "depth " << c.depth;
  }
}

TEST(Arbitration, ChannelNeverExceedsOneFlitPerCycle) {
  util::Rng rng(7);
  const Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config = baseConfig();
  config.warmupCycles = 100;
  config.measureCycles = 4000;
  config.vcCount = 4;  // VCs share the physical link: still <= 1 flit/clk
  const RunStats stats = simulate(routing.table(), traffic, 0.9, config);
  for (double util : stats.channelUtilization) {
    EXPECT_LE(util, 1.0 + 1e-12);
  }
}

TEST(Timeline, BucketsCoverTheRunAndSumToEjections) {
  const Topology topo = topo::torus(4, 4);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 1000;
  config.measureCycles = 4000;
  config.timelineBucketCycles = 500;
  const RunStats stats = simulate(routing.table(), traffic, 0.2, config);
  ASSERT_FALSE(stats.acceptedTimeline.empty());
  EXPECT_LE(stats.acceptedTimeline.size(), (1000u + 4000u) / 500u + 1);

  // Flits ejected during the measurement window == the sum of the buckets
  // that lie entirely inside it.
  std::uint64_t measuredBuckets = 0;
  for (std::size_t i = 1000 / 500; i < stats.acceptedTimeline.size(); ++i) {
    measuredBuckets += stats.acceptedTimeline[i];
  }
  EXPECT_EQ(measuredBuckets, stats.flitsEjectedMeasured);
}

TEST(Timeline, SteadyStateBucketsAreStable) {
  // After warm-up the per-bucket accepted counts should fluctuate around a
  // stable mean (stationarity), not trend.
  const Topology topo = topo::torus(4, 4);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config;
  config.packetLengthFlits = 8;
  config.warmupCycles = 2000;
  config.measureCycles = 16000;
  config.timelineBucketCycles = 2000;
  const RunStats stats = simulate(routing.table(), traffic, 0.15, config);
  ASSERT_GE(stats.acceptedTimeline.size(), 8u);
  // Compare the mean of the first and second half of the measured buckets.
  double first = 0.0;
  double second = 0.0;
  const std::size_t start = 1;  // skip the warm-up bucket
  const std::size_t n = stats.acceptedTimeline.size() - start;
  for (std::size_t i = 0; i < n; ++i) {
    (i < n / 2 ? first : second) +=
        static_cast<double>(stats.acceptedTimeline[start + i]);
  }
  first /= static_cast<double>(n / 2);
  second /= static_cast<double>(n - n / 2);
  EXPECT_NEAR(first, second, 0.25 * std::max(first, second));
}

TEST(Timeline, DisabledByDefault) {
  const Topology topo = topo::ring(4);
  const Routing routing = updownOn(topo);
  const UniformTraffic traffic(topo.nodeCount());
  SimConfig config;
  config.packetLengthFlits = 4;
  config.warmupCycles = 0;
  config.measureCycles = 500;
  const RunStats stats = simulate(routing.table(), traffic, 0.1, config);
  EXPECT_TRUE(stats.acceptedTimeline.empty());
}

}  // namespace
}  // namespace downup::sim
