// Incremental reconfiguration: Reconfigurator::rebuildIncremental keeps an
// anchor table's turn rule and rebuilds only the destinations a failure
// can affect.  Contract under test:
//
//   * the incremental table is bit-for-bit identical to a full masked
//     RoutingTable::build of the inherited rule, at any thread count, for
//     every single-link failure and across accumulated multi-link failures;
//   * a revived resource forces the full-rebuild path (incremental never
//     handles topology growth);
//   * when the inherited rule cannot serve every surviving pair (e.g. a
//     tree link whose loss severs the only legal detour) the incremental
//     path detects it and falls back to the full rebuild, so every outcome
//     is ok() regardless of which path ran — and the healthy rule serves
//     exactly the cross-link failures (tryIncremental);
//   * the cycle check runs on alive channels only, so a full rebuild's
//     dead channels raise no false cycle;
//   * in the engine, reconfigIncremental = true shortens the frozen window
//     (reconfigCyclesTotal) for incremental-served failures and leaves
//     results verified and fully drained.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/downup_routing.hpp"
#include "fault/reconfigure.hpp"
#include "fault/schedule.hpp"
#include "routing/routing_table.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "util/thread_pool.hpp"

namespace downup::fault {
namespace {

topo::Topology makeSan(topo::NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

std::vector<std::uint64_t> channelMask(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linksUp) {
  std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
  for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
    if (linksUp[topo::Topology::linkOf(c)] != 0) {
      alive[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return alive;
}

TEST(IncrementalReconfigTest, EverySingleLinkFailureMatchesMaskedFullBuild) {
  for (const std::uint64_t seed : {2024u, 2025u, 2026u}) {
    const topo::Topology topo = makeSan(24, seed);
    const Reconfigurator reconf(topo);
    const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
    const ReconfigOutcome healthy =
        reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
    ASSERT_TRUE(healthy.ok());

    unsigned servedIncrementally = 0;
    for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " link " << l);
      std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
      linksUp[l] = 0;
      const ReconfigOutcome out =
          reconf.rebuildIncremental(*healthy.table, linksUp, nodesUp);
      ASSERT_TRUE(out.ok());
      if (!out.incremental) continue;  // fallback ran the full path
      ++servedIncrementally;
      // The incremental epoch must equal the masked full build of the
      // INHERITED rule exactly (same steps, same candidate rows).
      const routing::RoutingTable masked = routing::RoutingTable::build(
          *out.perms, nullptr, channelMask(topo, linksUp));
      EXPECT_TRUE(out.table->identicalTo(masked));
      EXPECT_EQ(out.rebuiltDestinations,
                healthy.table->dirtyDestinationCount(
                    channelMask(topo, linksUp)));
    }
    // The incremental path must actually fire on a healthy SAN — if every
    // link fell back, the dirty-set machinery is broken.
    EXPECT_GT(servedIncrementally, 0u);
  }
}

TEST(IncrementalReconfigTest, AccumulatedFailuresAndThreadCountDeterminism) {
  const topo::Topology topo = makeSan(32, 99);
  util::ThreadPool four(4);
  const Reconfigurator serial(topo);
  const Reconfigurator pooled(topo, &four);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());

  ReconfigOutcome prev = serial.rebuild(linksUp, nodesUp);
  ASSERT_TRUE(prev.ok());

  // Kill links one at a time, feeding each incremental epoch the previous
  // one — the masks only ever clear bits, so the precondition holds.  An
  // incremental epoch shares its clean blocks with the epoch it came from,
  // so the first three failures (all served incrementally) share blocks
  // across three generations, and each must equal the masked full build of
  // its rule.  Links 7 and 13 take the full-rebuild fallback.
  unsigned incrementalEpochs = 0;
  for (const topo::LinkId l : {0u, 1u, 18u, 7u, 13u}) {
    SCOPED_TRACE(testing::Message() << "link " << l);
    linksUp[l] = 0;
    ReconfigOutcome serialOut =
        serial.rebuildIncremental(*prev.table, linksUp, nodesUp);
    ReconfigOutcome pooledOut =
        pooled.rebuildIncremental(*prev.table, linksUp, nodesUp);
    // Destroy the parent epoch first, so that a shared block outliving its
    // owner is a use-after-free the sanitizers see.
    prev = ReconfigOutcome{};
    ASSERT_TRUE(serialOut.ok());
    ASSERT_TRUE(pooledOut.ok());
    EXPECT_EQ(serialOut.incremental, pooledOut.incremental);
    EXPECT_TRUE(serialOut.table->identicalTo(*pooledOut.table));
    EXPECT_EQ(serialOut.table->fingerprint(), pooledOut.table->fingerprint());
    if (serialOut.incremental) {
      ++incrementalEpochs;
      const routing::RoutingTable masked = routing::RoutingTable::build(
          *serialOut.perms, nullptr, channelMask(topo, linksUp));
      EXPECT_TRUE(serialOut.table->identicalTo(masked));
      EXPECT_EQ(serialOut.table->fingerprint(), masked.fingerprint());
    }
    prev = std::move(serialOut);
  }
  EXPECT_EQ(incrementalEpochs, 3u);
}

TEST(IncrementalReconfigTest, RevivalForcesFullRebuild) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());

  // Previous epoch: link 0 dead.  New masks: link 0 alive again (and link 1
  // dead, so the masks are not trivially healthy).
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[0] = 0;
  const ReconfigOutcome prev = reconf.rebuild(degraded, nodesUp);
  ASSERT_TRUE(prev.ok());

  std::vector<std::uint8_t> revived = allAlive(topo.linkCount());
  revived[1] = 0;
  const ReconfigOutcome out =
      reconf.rebuildIncremental(*prev.table, revived, nodesUp);
  EXPECT_FALSE(out.incremental);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.rebuiltDestinations, out.aliveNodes);
}

TEST(IncrementalReconfigTest, DirtyFractionBoundsAndFallbackConsistency) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const ReconfigOutcome healthy =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  ASSERT_TRUE(healthy.ok());

  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    linksUp[l] = 0;
    const double fraction =
        reconf.incrementalDirtyFraction(*healthy.table, linksUp, nodesUp);
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  // A revival reports the full fraction (incremental cannot apply).
  std::vector<std::uint8_t> degraded = allAlive(topo.linkCount());
  degraded[2] = 0;
  const ReconfigOutcome prev = reconf.rebuild(degraded, nodesUp);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(reconf.incrementalDirtyFraction(
                *prev.table, allAlive(topo.linkCount()), nodesUp),
            1.0);
}

bool isTreeLink(const routing::TurnPermissions& rule, topo::LinkId l) {
  const routing::Dir d = rule.dir(2 * l);
  return d == routing::Dir::kLuTree || d == routing::Dir::kRdTree;
}

// The anchor-skip rule of FabricManager: the healthy rule serves every
// single cross-link failure and no single tree-link failure, so skipping
// an anchor whose tree channel died loses nothing.
TEST(IncrementalReconfigTest, HealthyRuleServesCrossButNotTreeLinkFailures) {
  for (const topo::NodeId switches : {24u, 64u}) {
    for (const std::uint64_t seed : {2024u, 2025u, 2026u}) {
      const topo::Topology topo = makeSan(switches, seed);
      const Reconfigurator reconf(topo);
      const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
      const ReconfigOutcome healthy =
          reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
      ASSERT_TRUE(healthy.ok());
      unsigned treeLinks = 0;
      for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
        SCOPED_TRACE(testing::Message() << switches << " switches, seed "
                                        << seed << ", link " << l);
        std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
        linksUp[l] = 0;
        const bool tree = isTreeLink(*healthy.perms, l);
        treeLinks += tree;
        EXPECT_EQ(reconf.tryIncremental(*healthy.table, linksUp, nodesUp)
                      .has_value(),
                  !tree);
      }
      EXPECT_EQ(treeLinks, topo.nodeCount() - 1);
    }
  }
}

// A full rebuild leaves arbitrary directions on its dead channels.  The
// cycle check of an incremental epoch from it must ignore them: after tree
// link 0 dies (a full rebuild, F), cross link 1's failure is served from
// F's rule.
TEST(IncrementalReconfigTest, FullRebuildServesCrossLinkFailureDespiteDeadChannels) {
  const topo::Topology topo = makeSan(24, 2024);
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const ReconfigOutcome healthy =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(isTreeLink(*healthy.perms, 0));

  std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
  linksUp[0] = 0;
  const ReconfigOutcome full = reconf.rebuildIncremental(*healthy.table,
                                                         linksUp, nodesUp);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.incremental);
  ASSERT_FALSE(isTreeLink(*full.perms, 1));

  linksUp[1] = 0;
  const ReconfigOutcome out =
      reconf.rebuildIncremental(*full.table, linksUp, nodesUp);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.incremental);
  const routing::RoutingTable masked = routing::RoutingTable::build(
      *full.perms, nullptr, channelMask(topo, linksUp));
  EXPECT_TRUE(out.table->identicalTo(masked));
  EXPECT_EQ(out.rebuiltDestinations, 18u);
}

// Engine integration: the same fault scenario with and without
// reconfigIncremental.  The incremental run must freeze injection for
// FEWER total cycles (the window scales with the dirty fraction), complete
// at least one incremental swap, stay verified, and drain completely.
TEST(IncrementalReconfigTest, EngineShortensReconfigWindow) {
  const topo::Topology topo = makeSan(32, 7);
  util::Rng treeRng(8);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());

  // A link failure the incremental path can serve: probe offline first so
  // the engine assertion below is about window length, not applicability.
  const Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());
  const ReconfigOutcome healthy =
      reconf.rebuild(allAlive(topo.linkCount()), nodesUp);
  ASSERT_TRUE(healthy.ok());
  topo::LinkId victim = topo.linkCount();
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    linksUp[l] = 0;
    const ReconfigOutcome probe =
        reconf.rebuildIncremental(*healthy.table, linksUp, nodesUp);
    if (probe.ok() && probe.incremental &&
        probe.unreachablePairs == 0) {
      victim = l;
      break;
    }
  }
  ASSERT_LT(victim, topo.linkCount()) << "no incremental-served link found";

  FaultSchedule schedule;
  schedule.linkDown(3000, victim);

  sim::SimConfig config;
  config.packetLengthFlits = 16;
  config.warmupCycles = 1000;
  config.measureCycles = 8000;
  config.reconfigLatencyCycles = 400;
  config.faultSchedule = &schedule;
  config.seed = 11;

  sim::RunStats fullStats;
  {
    sim::WormholeNetwork net(routing.table(), traffic, 0.05, config);
    net.run();
    ASSERT_TRUE(net.drainRemaining(100000));
    fullStats = net.collectStats();
  }
  sim::SimConfig incrConfig = config;
  incrConfig.reconfigIncremental = true;
  sim::RunStats incrStats;
  {
    sim::WormholeNetwork net(routing.table(), traffic, 0.05, incrConfig);
    net.run();
    ASSERT_TRUE(net.drainRemaining(100000));
    incrStats = net.collectStats();
  }

  EXPECT_FALSE(fullStats.deadlocked);
  EXPECT_FALSE(incrStats.deadlocked);
  EXPECT_TRUE(fullStats.reconfigRoutingVerified);
  EXPECT_TRUE(incrStats.reconfigRoutingVerified);
  EXPECT_EQ(fullStats.reconfigurations, 1u);
  EXPECT_EQ(incrStats.reconfigurations, 1u);
  EXPECT_EQ(fullStats.reconfigIncrementalSwaps, 0u);
  EXPECT_EQ(incrStats.reconfigIncrementalSwaps, 1u);
  // The swap cycle itself counts as open, hence >= rather than ==.
  EXPECT_GE(fullStats.reconfigCyclesTotal, config.reconfigLatencyCycles);
  EXPECT_LT(incrStats.reconfigCyclesTotal, fullStats.reconfigCyclesTotal);
  EXPECT_LT(incrStats.reconfigDestinationsRebuilt,
            fullStats.reconfigDestinationsRebuilt);
}

}  // namespace
}  // namespace downup::fault
