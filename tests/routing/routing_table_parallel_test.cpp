// The parallel routing-table build contract: RoutingTable::build over a
// worker pool is bit-for-bit identical to the serial build at any thread
// count, on any topology.  Every thread count runs the same per-destination
// block construction, so the comparison checks that the fan-out (taken from
// kParallelBuildMinDestinations destinations up) neither reorders nor mixes
// blocks.  A golden fingerprint pins the contents themselves: if the
// construction or the fingerprint's CSR encoding silently changes, the pin
// moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/downup_routing.hpp"
#include "routing/routing_table.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"

namespace downup {
namespace {

/// A repaired and released DOWN/UP rule together with the topology it
/// references (the topology stays put when the struct moves).
struct Rule {
  std::unique_ptr<topo::Topology> topo;
  routing::TurnPermissions perms;
};

Rule makeRule(topo::NodeId switches, unsigned ports, std::uint64_t seed) {
  util::Rng topoRng(seed);
  auto topo = std::make_unique<topo::Topology>(
      topo::randomIrregular(switches, {.maxPorts = ports}, topoRng));
  util::Rng treeRng(seed + 1);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      *topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  routing::TurnPermissions perms(*topo, routing::classifyDownUp(*topo, ct),
                                 core::downUpTurnSet());
  core::repairTurnCycles(perms);
  core::releaseRedundantProhibitions(perms);
  return {std::move(topo), std::move(perms)};
}

TEST(RoutingTableParallelTest, OneVsFourThreadsIdenticalAcrossSizes) {
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (const topo::NodeId switches : {32u, 64u, 128u, 256u}) {
    for (const unsigned ports : {4u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << switches << " switches, " << ports << " ports");
      const Rule rule = makeRule(switches, ports, 1000 + switches);
      const routing::TurnPermissions& perms = rule.perms;
      const routing::RoutingTable serial = routing::RoutingTable::build(perms);
      const routing::RoutingTable viaOne =
          routing::RoutingTable::build(perms, &one);
      const routing::RoutingTable viaFour =
          routing::RoutingTable::build(perms, &four);
      EXPECT_TRUE(serial.identicalTo(viaOne));
      EXPECT_TRUE(serial.identicalTo(viaFour));
      EXPECT_EQ(serial.fingerprint(), viaFour.fingerprint());
    }
  }
}

TEST(RoutingTableParallelTest, MaskedBuildIdenticalAcrossThreadCounts) {
  const Rule rule = makeRule(64, 4, 77);
  const routing::TurnPermissions& perms = rule.perms;
  const topo::Topology& topo = perms.topology();
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
    alive[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  // Kill a couple of links (both channel directions each).
  for (const topo::ChannelId dead : {2u, 3u, 40u, 41u}) {
    alive[dead >> 6] &= ~(std::uint64_t{1} << (dead & 63));
  }
  util::ThreadPool four(4);
  const routing::RoutingTable serial =
      routing::RoutingTable::build(perms, nullptr, alive);
  const routing::RoutingTable parallel =
      routing::RoutingTable::build(perms, &four, alive);
  EXPECT_TRUE(serial.identicalTo(parallel));
  // The masked build must differ from the unmasked one (the dead links
  // carried traffic in this topology).
  EXPECT_FALSE(serial.identicalTo(routing::RoutingTable::build(perms)));
}

// Golden pin: the 32-switch / 4-port reference table's fingerprint.  This
// moves only if the construction algorithm, the hashed CSR order or the FNV
// fold change — all of which are observable contract changes that golden
// sim runs depend on.  Update the constant deliberately when one of those
// changes on purpose.
TEST(RoutingTableParallelTest, FingerprintGoldenPin) {
  const Rule rule = makeRule(32, 4, 1032);
  const routing::TurnPermissions& perms = rule.perms;
  const routing::RoutingTable table = routing::RoutingTable::build(perms);
  const std::uint64_t pinned = table.fingerprint();
  EXPECT_NE(pinned, 0u);
  util::ThreadPool four(4);
  EXPECT_EQ(routing::RoutingTable::build(perms, &four).fingerprint(), pinned);
  // The pinned value itself, recorded from the first Release build.  See
  // the comment above before editing.
  EXPECT_EQ(pinned, UINT64_C(0x408230be4b824ecc));
}

}  // namespace
}  // namespace downup
