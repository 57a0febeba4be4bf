// The independent oracle against the constructive pipeline's own checker:
// over a fuzzed family of irregular topologies the peeling verdict must
// agree with verifyRouting()'s DFS verdict for every routing algorithm,
// a genuinely cyclic rule must be rejected with a valid witness cycle, the
// state layer must catch a wedged occupancy that verifyRouting — which
// has no notion of network state — cannot see at all, and the table layer
// must reject a table that does not match its rule or its alive mask while
// accepting every table the fault paths publish.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"
#include "verify/oracle.hpp"

namespace downup::verify {
namespace {

/// Undirected 6-cycle: the smallest topology on which an unrestricted turn
/// rule has a cyclic channel-dependency graph.
topo::Topology ringTopology(topo::NodeId n = 6) {
  topo::Topology ring(n);
  for (topo::NodeId v = 0; v < n; ++v) {
    ring.addLink(v, static_cast<topo::NodeId>((v + 1) % n));
  }
  return ring;
}

/// Every turn allowed (modulo the structural U-turn ban), every channel
/// nominally "down": the permission CDG equals the raw channel graph.
routing::TurnPermissions unrestrictedPerms(const topo::Topology& topo) {
  routing::DirectionMap dirs(topo.channelCount(), routing::Dir::kRdTree);
  return routing::TurnPermissions(topo, std::move(dirs),
                                  routing::TurnSet::allAllowed());
}

/// A witness cycle is only a witness if every consecutive pair really is a
/// permitted dependency on the claimed topology.
void expectValidRuleCycle(const topo::Topology& topo,
                          const routing::TurnPermissions& perms,
                          const std::vector<ChannelId>& cycle) {
  ASSERT_GE(cycle.size(), 2u);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId from = cycle[i];
    const ChannelId to = cycle[(i + 1) % cycle.size()];
    const topo::NodeId via = topo.channelDst(from);
    ASSERT_EQ(topo.channelSrc(to), via)
        << "witness edge " << from << " -> " << to
        << " is not head-to-tail at node " << via;
    EXPECT_TRUE(perms.allowed(via, from, to))
        << "witness edge " << from << " -> " << to
        << " is not permitted by the rule it claims to break";
  }
}

TEST(OracleCrossValidation, AgreesWithVerifyRoutingOverFuzzedTopologies) {
  // 50 seeded irregular SANs x every algorithm: the two independent
  // formulations (peeling to the greatest fixed point vs three-color DFS)
  // must never disagree, and every table must pass the table layer: steps
  // rows at the rule's fixed point, every candidate row derived from them.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    const auto switches = static_cast<topo::NodeId>(8 + seed % 17);
    const topo::Topology topo =
        topo::randomIrregular(switches, {.maxPorts = 4}, rng);
    util::Rng treeRng(seed + 1000);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, treeRng);

    for (const core::Algorithm algorithm : core::kAllAlgorithms) {
      const routing::Routing routing =
          core::buildRouting(algorithm, topo, ct);
      const routing::VerifyReport reference = routing::verifyRouting(routing);

      OracleInput input;
      input.perms = &routing.permissions();
      input.table = &routing.table();
      input.deepDistanceCheck = true;
      const OracleReport report = runOracle(input);

      ASSERT_EQ(report.ruleDeadlockFree, reference.deadlockFree)
          << "seed " << seed << " " << core::toString(algorithm)
          << ": oracle and verifyRouting disagree";
      ASSERT_TRUE(report.tableConsistent)
          << "seed " << seed << " " << core::toString(algorithm) << ": "
          << report.candidateViolations << " candidate violations, "
          << report.distanceMismatches << " distance mismatches";
      EXPECT_EQ(report.candidateViolations, 0u);
      EXPECT_EQ(report.distanceMismatches, 0u);
      EXPECT_TRUE(report.stateDrains);  // no occupancy given
      EXPECT_TRUE(report.ok()) << report.describe();
      EXPECT_EQ(report.ruleResidual, 0u);
      EXPECT_TRUE(report.ruleCycle.empty());
    }
  }
}

/// A seeded 24-switch SAN with its DOWN/UP routing (the reconfiguration
/// tests' fabric).  Members are built in declaration order, so the
/// routing's pointers into `topo` stay valid; a Fabric is never moved.
struct Fabric {
  Fabric()
      : topo(makeTopo()),
        ct(makeTree(topo)),
        routing(core::buildDownUp(topo, ct)) {}

  static topo::Topology makeTopo() {
    util::Rng rng(2024);
    return topo::randomIrregular(24, {.maxPorts = 4}, rng);
  }
  static tree::CoordinatedTree makeTree(const topo::Topology& topo) {
    util::Rng rng(0);
    return tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
  }

  topo::Topology topo;
  tree::CoordinatedTree ct;
  routing::Routing routing;
};

/// The alive mask FabricManager audits a publish with: a channel is alive
/// when its link and both of its switches are.
std::vector<std::uint8_t> managerChannelMask(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linkAlive,
    const std::vector<std::uint8_t>& nodeAlive) {
  std::vector<std::uint8_t> alive(topo.channelCount(), 0);
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    alive[2 * l] = alive[2 * l + 1] =
        linkAlive[l] && nodeAlive[a] && nodeAlive[b];
  }
  return alive;
}

/// One alive bit per channel, with both channels of `dead` cleared (the
/// mask RoutingTable::build and rebuildDead take).
std::vector<std::uint64_t> aliveBitsWithout(const topo::Topology& topo,
                                            topo::LinkId dead) {
  std::vector<std::uint64_t> bits((topo.channelCount() + 63) / 64,
                                  ~std::uint64_t{0});
  for (const topo::ChannelId c : {2 * dead, 2 * dead + 1}) {
    bits[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
  }
  return bits;
}

OracleReport auditTable(const routing::TurnPermissions& perms,
                        const routing::RoutingTable& table,
                        std::span<const std::uint8_t> alive = {}) {
  OracleInput input;
  input.perms = &perms;
  input.table = &table;
  input.channelAlive = alive;
  input.deepDistanceCheck = true;
  return runOracle(input);
}

TEST(OracleTable, TableBuiltForAnotherRuleIsRejected) {
  const Fabric f;
  const routing::Routing lturn =
      core::buildRouting(core::Algorithm::kLTurn, f.topo, f.ct);
  const OracleReport report =
      auditTable(lturn.permissions(), f.routing.table());
  EXPECT_TRUE(report.ruleDeadlockFree);
  EXPECT_FALSE(report.tableConsistent) << report.describe();
  EXPECT_FALSE(report.ok());
}

TEST(OracleTable, AllAliveTableAuditedWithADeadLinkIsRejected) {
  const Fabric f;
  std::vector<std::uint8_t> alive(f.topo.channelCount(), 1);
  alive[0] = alive[1] = 0;  // link 0
  const OracleReport report =
      auditTable(f.routing.permissions(), f.routing.table(), alive);
  EXPECT_FALSE(report.tableConsistent) << report.describe();
  EXPECT_GT(report.distanceMismatches, 0u);
}

TEST(OracleTable, MaskedTableAuditedAsAllAliveIsRejectedByTheStepsCheck) {
  // Every row of a table built with link 0 masked agrees with its own
  // steps, so only the fixed-point check sees that link 0's channels and
  // the paths through them are missing.
  const Fabric f;
  const routing::RoutingTable masked = routing::RoutingTable::build(
      f.routing.permissions(), nullptr, aliveBitsWithout(f.topo, 0));
  const OracleReport report = auditTable(f.routing.permissions(), masked);
  EXPECT_FALSE(report.tableConsistent) << report.describe();
  EXPECT_EQ(report.candidateViolations, 0u);
  EXPECT_GT(report.distanceMismatches, 0u);
}

TEST(OracleTable, IncrementalTablePassesUnderTheManagersMask) {
  const Fabric f;
  for (topo::LinkId dead = 0; dead < f.topo.linkCount(); ++dead) {
    std::vector<std::uint8_t> linkAlive(f.topo.linkCount(), 1);
    const std::vector<std::uint8_t> nodeAlive(f.topo.nodeCount(), 1);
    linkAlive[dead] = 0;
    const std::optional<routing::RoutingTable> incremental =
        routing::RoutingTable::rebuildDead(f.routing.table(), nullptr,
                                           aliveBitsWithout(f.topo, dead));
    ASSERT_TRUE(incremental.has_value());
    const OracleReport report =
        auditTable(f.routing.permissions(), *incremental,
                   managerChannelMask(f.topo, linkAlive, nodeAlive));
    EXPECT_TRUE(report.ok()) << "link " << dead << ": " << report.describe();
  }
}

TEST(OracleTable, RebuildForADeadSwitchPassesUnderTheManagersMask) {
  const Fabric f;
  const fault::Reconfigurator reconf(f.topo);
  const std::vector<std::uint8_t> linkAlive(f.topo.linkCount(), 1);
  std::vector<std::uint8_t> nodeAlive(f.topo.nodeCount(), 1);
  nodeAlive[11] = 0;
  const fault::ReconfigOutcome out = reconf.rebuild(linkAlive, nodeAlive);
  ASSERT_TRUE(out.ok());
  const OracleReport report =
      auditTable(*out.perms, *out.table,
                 managerChannelMask(f.topo, linkAlive, nodeAlive));
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(OracleTable, RebuildForAPartitionPassesUnderTheManagersMask) {
  // Switch 11 and its neighbours cut off from the other 19 switches.
  const Fabric f;
  const fault::Reconfigurator reconf(f.topo);
  std::vector<bool> side(f.topo.nodeCount(), false);
  side[11] = true;
  for (const topo::NodeId w : f.topo.neighbors(11)) side[w] = true;
  std::vector<std::uint8_t> linkAlive(f.topo.linkCount(), 1);
  for (topo::LinkId l = 0; l < f.topo.linkCount(); ++l) {
    const auto [a, b] = f.topo.linkEnds(l);
    if (side[a] != side[b]) linkAlive[l] = 0;
  }
  const std::vector<std::uint8_t> nodeAlive(f.topo.nodeCount(), 1);
  const fault::ReconfigOutcome out = reconf.rebuild(linkAlive, nodeAlive);
  ASSERT_EQ(out.components, 2u);
  const OracleReport report =
      auditTable(*out.perms, *out.table,
                 managerChannelMask(f.topo, linkAlive, nodeAlive));
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(OracleNegative, UnrestrictedRingIsRejectedWithValidWitness) {
  const topo::Topology ring = ringTopology();
  const routing::TurnPermissions perms = unrestrictedPerms(ring);

  OracleInput input;
  input.perms = &perms;
  const OracleReport report = runOracle(input);

  EXPECT_FALSE(report.ruleDeadlockFree);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.ruleResidual, 0u);
  EXPECT_EQ(report.aliveChannels, ring.channelCount());
  expectValidRuleCycle(ring, perms, report.ruleCycle);
}

TEST(OracleNegative, UnrestrictedCopyOfRealRulePlantsGenuineCycle) {
  // unrestrictedCopy is the gate's fault injection: on any topology with
  // an undirected cycle it must turn a verified-acyclic DOWN/UP rule into
  // one the oracle rejects, with a witness that is valid under the COPY.
  util::Rng rng(7);
  const topo::Topology topo = topo::randomIrregular(20, {.maxPorts = 4}, rng);
  ASSERT_GE(topo.linkCount(), topo.nodeCount());  // guarantees a cycle
  util::Rng treeRng(1007);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);

  OracleInput healthy;
  healthy.perms = &routing.permissions();
  EXPECT_TRUE(runOracle(healthy).ruleDeadlockFree);

  const routing::TurnPermissions planted =
      unrestrictedCopy(routing.permissions());
  OracleInput corrupted;
  corrupted.perms = &planted;
  const OracleReport report = runOracle(corrupted);
  EXPECT_FALSE(report.ruleDeadlockFree);
  expectValidRuleCycle(topo, planted, report.ruleCycle);
}

TEST(OracleRule, DeadChannelsAreExcludedFromThePermissionGraph) {
  // Killing one link of the unrestricted ring breaks the only cycles: the
  // surviving channels form two directed chains, which peel completely.
  const topo::Topology ring = ringTopology();
  const routing::TurnPermissions perms = unrestrictedPerms(ring);

  std::vector<std::uint8_t> alive(ring.channelCount(), 1);
  alive[0] = 0;
  alive[1] = 0;  // both channels of link 0

  OracleInput input;
  input.perms = &perms;
  input.channelAlive = alive;
  const OracleReport report = runOracle(input);
  EXPECT_TRUE(report.ruleDeadlockFree);
  EXPECT_EQ(report.aliveChannels, ring.channelCount() - 2);
  EXPECT_EQ(report.ruleResidual, 0u);
}

TEST(OracleState, HoldCycleIsInvisibleToVerifyRoutingButCaughtHere) {
  // The insufficiency demonstration the gate exists for: a perfectly
  // acyclic published rule (verifyRouting says deadlock-free) coexisting
  // with a wedged occupancy — each worm holds a channel and extends onto
  // the next one around a loop.  verifyRouting audits rules, not states,
  // so its verdict stays clean; only the oracle's state layer (which peels
  // the hold/request graph) reports the wedge.
  util::Rng rng(11);
  const topo::Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  util::Rng treeRng(1011);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  ASSERT_TRUE(routing::verifyRouting(routing).deadlockFree);
  ASSERT_GE(topo.channelCount(), 6u);

  const std::vector<OccupancyEdge> wedged = {{0, 2}, {2, 4}, {4, 0}};
  OracleInput input;
  input.perms = &routing.permissions();
  input.holdEdges = wedged;
  const OracleReport report = runOracle(input);

  EXPECT_TRUE(report.ruleDeadlockFree);  // the rule itself is fine
  EXPECT_FALSE(report.stateDrains);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.stateResidual, 0u);
  ASSERT_FALSE(report.stateCycle.empty());
  for (const ChannelId c : report.stateCycle) {
    EXPECT_TRUE(c == 0 || c == 2 || c == 4)
        << "state witness strayed outside the planted cycle";
  }
}

TEST(OracleState, AcyclicOccupancyDrains) {
  util::Rng rng(13);
  const topo::Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  util::Rng treeRng(1013);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  ASSERT_GE(topo.channelCount(), 6u);

  // A straight-line worm chain plus a request onto its tail: no cycle, so
  // everything peels regardless of what the turn rule says about the hops.
  const std::vector<OccupancyEdge> holds = {{0, 2}, {2, 4}};
  const std::vector<OccupancyEdge> requests = {{5, 0}};
  OracleInput input;
  input.perms = &routing.permissions();
  input.holdEdges = holds;
  input.requestEdges = requests;
  const OracleReport report = runOracle(input);
  EXPECT_TRUE(report.stateDrains);
  EXPECT_EQ(report.stateResidual, 0u);
  EXPECT_TRUE(report.stateCycle.empty());
}

TEST(OracleState, RequestEdgesCloseCyclesHoldsAloneDoNot) {
  // A hold chain A->B plus a blocked header on B requesting A: the classic
  // two-worm wedge, representable only with both edge kinds.
  util::Rng rng(17);
  const topo::Topology topo = topo::randomIrregular(16, {.maxPorts = 4}, rng);
  util::Rng treeRng(1017);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);

  const std::vector<OccupancyEdge> holds = {{0, 2}};
  const std::vector<OccupancyEdge> requests = {{2, 0}};
  OracleInput input;
  input.perms = &routing.permissions();
  input.holdEdges = holds;
  const OracleReport holdsOnly = runOracle(input);
  EXPECT_TRUE(holdsOnly.stateDrains);

  input.requestEdges = requests;
  const OracleReport both = runOracle(input);
  EXPECT_FALSE(both.stateDrains);
  EXPECT_EQ(both.stateResidual, 2u);
}

TEST(OracleReportTest, DescribeNamesTheFailingLayers) {
  const topo::Topology ring = ringTopology();
  const routing::TurnPermissions perms = unrestrictedPerms(ring);
  OracleInput input;
  input.perms = &perms;
  const OracleReport bad = runOracle(input);
  EXPECT_NE(bad.describe().find("rule"), std::string::npos);

  OracleReport clean;
  clean.ruleDeadlockFree = true;
  EXPECT_EQ(clean.describe().find("rule"), std::string::npos);
}

}  // namespace
}  // namespace downup::verify
