// OracleGate semantics: per-point audit ledger, the planted-violation fault
// injection (with its replayable dump and its dump budget), and the
// bit-for-bit inertness contract — attaching a gate to a fault-injected
// simulation must not change a single statistic.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/schedule.hpp"
#include "routing/updown.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"
#include "verify/replay.hpp"

namespace downup::verify {
namespace {

topo::Topology makeTopo(std::uint64_t seed, topo::NodeId switches) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

tree::CoordinatedTree makeTree(const topo::Topology& topo,
                               std::uint64_t seed) {
  util::Rng treeRng(seed + 100);
  return tree::CoordinatedTree::build(topo, tree::TreePolicy::kM1SmallestFirst,
                                      treeRng);
}

/// Members are built in declaration order against the already-constructed
/// `topo` member, so the pointers Routing keeps into the topology stay
/// valid (a Scenario is never moved).
struct Scenario {
  explicit Scenario(std::uint64_t seed, topo::NodeId switches = 20)
      : topo(makeTopo(seed, switches)),
        ct(makeTree(topo, seed)),
        routing(core::buildDownUp(topo, ct)) {}

  topo::Topology topo;
  tree::CoordinatedTree ct;
  routing::Routing routing;
};

Scenario makeScenario(std::uint64_t seed, topo::NodeId switches = 20) {
  return Scenario(seed, switches);
}

TEST(OracleGateTest, LedgerCountsAuditsPerPoint) {
  const Scenario s = makeScenario(21);
  OracleGate gate;
  OracleInput input;
  input.perms = &s.routing.permissions();

  CaseContext context;
  context.point = "baseline";
  EXPECT_TRUE(gate.audit(input, context));
  EXPECT_TRUE(gate.audit(input, context));
  context.point = "epoch_publish";
  EXPECT_TRUE(gate.audit(input, context));

  EXPECT_EQ(gate.audits(), 3u);
  EXPECT_EQ(gate.violations(), 0u);
  EXPECT_EQ(gate.auditsAt("baseline"), 2u);
  EXPECT_EQ(gate.auditsAt("epoch_publish"), 1u);
  EXPECT_EQ(gate.auditsAt("never_seen"), 0u);
  EXPECT_TRUE(gate.lastCasePath().empty());
}

TEST(OracleGateTest, PlantedViolationFiresAndDumpsReplayableCase) {
  const Scenario s = makeScenario(23);
  ASSERT_GE(s.topo.linkCount(), s.topo.nodeCount());  // cycle exists

  OracleGate::Options options;
  options.plantViolation = true;
  options.dumpPathPrefix = ::testing::TempDir() + "gate_test_planted";
  OracleGate gate(options);

  OracleInput input;
  input.perms = &s.routing.permissions();
  CaseContext context;
  context.point = "epoch_publish";
  context.cycle = 42;
  context.epoch = 7;
  EXPECT_FALSE(gate.audit(input, context));

  EXPECT_EQ(gate.violations(), 1u);
  EXPECT_EQ(gate.casesDumped(), 1u);
  ASSERT_FALSE(gate.lastCasePath().empty());
  EXPECT_FALSE(gate.lastViolation().ruleDeadlockFree);

  // The dumped witness is replayable: reloading it and re-running the
  // oracle on the reconstructed (planted) rule reproduces the verdict.
  std::ifstream in(gate.lastCasePath());
  ASSERT_TRUE(in.is_open()) << gate.lastCasePath();
  const ReplayCase rc = loadReplayCase(in, gate.lastCasePath());
  EXPECT_EQ(rc.context.point, "epoch_publish");
  EXPECT_EQ(rc.context.cycle, 42u);
  EXPECT_EQ(rc.context.epoch, 7u);
  EXPECT_FALSE(rc.expectedRuleDeadlockFree);
  const OracleReport replayed = runOracle(rc.input());
  EXPECT_FALSE(replayed.ruleDeadlockFree);
  EXPECT_EQ(replayed.ruleDeadlockFree, rc.expectedRuleDeadlockFree);
}

TEST(OracleGateTest, DumpBudgetBoundsFilesNotViolations) {
  const Scenario s = makeScenario(24);
  OracleGate::Options options;
  options.plantViolation = true;
  options.dumpPathPrefix = ::testing::TempDir() + "gate_test_budget";
  OracleGate gate(options);

  OracleInput input;
  input.perms = &s.routing.permissions();
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(gate.audit(input, {.point = "baseline"}));
  }
  EXPECT_EQ(gate.violations(), 9u);
  EXPECT_EQ(gate.casesDumped(), 8u);
}

TEST(OracleGateTest, TableStepsAreCheckedAbove8192Channels) {
  // A table built with link 0 masked, audited as all-alive: its rows agree
  // with its own steps, so only the steps check can tell.  The gate runs
  // that check on every audit with a table, whatever the fabric's size.
  const topo::Topology topo = topo::complete(92);
  ASSERT_GT(topo.channelCount(), 8192u);
  const routing::Routing routing =
      routing::buildUpDown(topo, makeTree(topo, 92));
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64,
                                   ~std::uint64_t{0});
  alive[0] &= ~std::uint64_t{3};  // both channels of link 0
  const routing::RoutingTable masked =
      routing::RoutingTable::build(routing.permissions(), nullptr, alive);

  OracleGate gate;
  OracleInput input;
  input.perms = &routing.permissions();
  input.table = &masked;
  EXPECT_FALSE(gate.audit(input, {.point = "baseline"}));
  EXPECT_GT(gate.lastViolation().distanceMismatches, 0u);
  EXPECT_EQ(gate.lastViolation().candidateViolations, 0u);
}

TEST(OracleGateTest, FaultedSimulationIsBitForBitInertUnderTheGate) {
  // The gate's core contract: audits are read-only and draw no RNG, so a
  // fault-churned run produces identical statistics with and without it.
  const Scenario s = makeScenario(26, 16);

  sim::SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 200;
  config.measureCycles = 1500;
  config.reconfigLatencyCycles = 100;
  config.seed = 77;
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::randomLinkFailures(s.topo, 1, 500, 1, 99);
  config.faultSchedule = &schedule;

  const sim::UniformTraffic traffic(s.topo.nodeCount());
  const auto runOnce = [&](OracleGate* gate) {
    sim::SimConfig c = config;
    c.oracleGate = gate;
    sim::WormholeNetwork net(s.routing.table(), traffic, 0.05, c);
    net.run();
    net.drainRemaining(100000);
    return net.collectStats();
  };

  const sim::RunStats plain = runOnce(nullptr);
  OracleGate gate;
  const sim::RunStats gated = runOnce(&gate);

  // The gate really ran (epoch publish + both mid-reconfig points)...
  EXPECT_GT(gate.audits(), 0u);
  EXPECT_GE(gate.auditsAt("mid_reconfig_quarantine"), 1u);
  EXPECT_GE(gate.auditsAt("mid_reconfig_preswap"), 1u);
  EXPECT_GE(gate.auditsAt("epoch_publish"), 1u);
  EXPECT_EQ(gate.violations(), 0u);

  // ...and changed nothing.
  EXPECT_EQ(gated.cycles, plain.cycles);
  EXPECT_EQ(gated.packetsGenerated, plain.packetsGenerated);
  EXPECT_EQ(gated.packetsEjectedMeasured, plain.packetsEjectedMeasured);
  EXPECT_EQ(gated.avgLatency, plain.avgLatency);
  EXPECT_EQ(gated.p99Latency, plain.p99Latency);
  EXPECT_EQ(gated.acceptedFlitsPerNodePerCycle,
            plain.acceptedFlitsPerNodePerCycle);
  EXPECT_EQ(gated.reconfigurations, plain.reconfigurations);
  EXPECT_EQ(gated.packetsDroppedTotal(), plain.packetsDroppedTotal());
  EXPECT_EQ(gated.channelUtilization, plain.channelUtilization);
}

}  // namespace
}  // namespace downup::verify
