// FabricManager: driven-mode publishes match the Reconfigurator reference
// bit for bit, service mode coalesces fault bursts (flap cancel-out, union
// dirty set), the FaultController sink feeds effective transitions, and an
// attached OracleGate audits every epoch publish from both writer modes —
// recording a kOracleViolation anomaly without ever blocking the publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "fabric/manager.hpp"
#include "fault/controller.hpp"
#include "fault/schedule.hpp"
#include "obs/flight_recorder.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "verify/gate.hpp"

namespace downup::fabric {
namespace {

topo::Topology makeSan(topo::NodeId switches, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = 4}, rng);
}

std::vector<std::uint8_t> allAlive(std::size_t count) {
  return std::vector<std::uint8_t>(count, 1);
}

/// Spins until pred() holds or ~2s elapse; returns pred()'s final value.
template <class Pred>
bool waitUntil(Pred pred) {
  for (int i = 0; i < 2000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 11)
      : topo(makeSan(24, seed)),
        reconf(topo),
        baseline(reconf.rebuild(allAlive(topo.linkCount()),
                                allAlive(topo.nodeCount()))) {}

  topo::Topology topo;
  fault::Reconfigurator reconf;
  fault::ReconfigOutcome baseline;
};

TEST(FabricManagerTest, DrivenPublishMatchesReconfiguratorReference) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[2] = 0;
  const std::uint64_t referenceFp =
      fx.reconf.rebuild(linksUp, nodesUp).table->fingerprint();

  FabricManager fm(fx.topo, *fx.baseline.table);
  Reader reader = fm.makeReader();
  EXPECT_EQ(fm.acquire(reader).epoch(), 0u);

  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_TRUE(result.published);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.epoch, 1u);
  PinnedSnapshot pin = fm.acquire(reader);
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_EQ(pin.table().fingerprint(), referenceFp);
  EXPECT_EQ(fm.rebuilds(), 1u);
}

TEST(FabricManagerTest, DrivenIncrementalMatchesFullRebuild) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[3] = 0;

  FabricManager inc(fx.topo, *fx.baseline.table);
  FabricManager full(fx.topo, *fx.baseline.table);
  Reader incReader = inc.makeReader();
  Reader fullReader = full.makeReader();
  inc.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
  full.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_EQ(inc.acquire(incReader).table().fingerprint(),
            full.acquire(fullReader).table().fingerprint());
  EXPECT_LE(inc.incrementalDirtyFraction(linksUp, nodesUp), 1.0);
}

TEST(FabricManagerTest, ServiceCancelsFlapWithoutRebuilding) {
  Fixture fx;
  FabricManager fm(fx.topo, *fx.baseline.table);
  // DOWN then UP of the same link land in one coalescing batch: desired
  // masks equal applied masks, so the whole burst must cancel out.
  fm.onLinkStateChanged(100, 2, false);
  fm.onLinkStateChanged(100, 2, true);
  fm.startService();
  ASSERT_TRUE(waitUntil([&] { return fm.rebuildsSkipped() >= 1; }));
  fm.stopService();
  EXPECT_EQ(fm.rebuilds(), 0u);
  EXPECT_EQ(fm.currentEpoch(), 0u);
  EXPECT_EQ(fm.transitionsAbsorbed(), 2u);
}

TEST(FabricManagerTest, ServiceCoalescesBurstIntoOneRebuild) {
  Fixture fx;
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[1] = 0;
  linksUp[4] = 0;
  const std::uint64_t referenceFp =
      fx.reconf.rebuild(linksUp, nodesUp).table->fingerprint();

  FabricManager fm(fx.topo, *fx.baseline.table);
  fm.onLinkStateChanged(100, 1, false);
  fm.onLinkStateChanged(100, 4, false);
  fm.startService();
  ASSERT_TRUE(waitUntil([&] { return fm.rebuilds() >= 1; }));
  fm.stopService();

  // Two failures, one rebuild over the union dirty set.
  EXPECT_EQ(fm.rebuilds(), 1u);
  EXPECT_EQ(fm.largestBatch(), 2u);
  EXPECT_TRUE(fm.allPublishedOk());
  Reader reader = fm.makeReader();
  PinnedSnapshot pin = fm.acquire(reader);
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_EQ(pin.table().fingerprint(), referenceFp);
}

TEST(FabricManagerTest, StopServiceFlushesPendingTransitions) {
  Fixture fx;
  FabricManager fm(fx.topo, *fx.baseline.table);
  fm.startService();
  ASSERT_TRUE(fm.serviceRunning());
  fm.onLinkStateChanged(50, 5, false);
  fm.stopService();
  EXPECT_FALSE(fm.serviceRunning());
  // The shutdown drain still rebuilt for the pending failure.
  EXPECT_EQ(fm.rebuilds(), 1u);
  EXPECT_EQ(fm.currentEpoch(), 1u);
}

TEST(FabricManagerTest, ControllerSinkPostsEffectiveTransitions) {
  Fixture fx;
  // A same-cycle flap reaches the sink as DOWN then UP (the schedule's
  // down-before-up ordering), which the service then cancels out; a node
  // death cascades to its incident links as link transitions.
  fault::FaultSchedule schedule;
  schedule.linkUp(100, 2).linkDown(100, 2);  // reordered to down-then-up
  schedule.nodeDown(200, 3);
  fault::FaultController controller(fx.topo, schedule);

  FabricManager fm(fx.topo, *fx.baseline.table);
  controller.attachSink(&fm);

  controller.applyEventsAt(100);  // flap: net alive
  EXPECT_TRUE(controller.linkAlive(2));
  fm.startService();
  ASSERT_TRUE(waitUntil([&] { return fm.rebuildsSkipped() >= 1; }));
  EXPECT_EQ(fm.rebuilds(), 0u);

  controller.applyEventsAt(200);  // node death: rebuild required
  ASSERT_TRUE(waitUntil([&] { return fm.rebuilds() >= 1; }));
  fm.stopService();
  EXPECT_EQ(fm.rebuilds(), 1u);

  const std::uint64_t referenceFp =
      fx.reconf
          .rebuild(controller.linkAliveMask(), controller.nodeAliveMask())
          .table->fingerprint();
  Reader reader = fm.makeReader();
  EXPECT_EQ(fm.acquire(reader).table().fingerprint(), referenceFp);
}

/// kOracleViolation anomalies currently in the flight-recorder ring.
std::size_t oracleAnomalies(const obs::FlightRecorder& flight) {
  std::vector<obs::FabricEvent> events;
  flight.dump(events);
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [](const obs::FabricEvent& e) {
        return e.kind == obs::FabricEventKind::kAnomaly &&
               e.a == static_cast<std::uint64_t>(
                          obs::AnomalyCode::kOracleViolation);
      }));
}

TEST(FabricManagerTest, CleanOracleAuditsEveryDrivenPublishSilently) {
  Fixture fx;
  verify::OracleGate gate;
  FabricManager::Options options;
  options.oracle = &gate;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[1] = 0;  // the inherited rule still serves every pair
  const PublishResult incremental =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
  EXPECT_TRUE(incremental.published);
  EXPECT_TRUE(incremental.incremental);
  linksUp[2] = 0;
  const PublishResult full =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);
  EXPECT_TRUE(full.published);
  EXPECT_FALSE(full.incremental);

  // Each published epoch was audited exactly once, at the publish, on both
  // rebuild paths...
  EXPECT_EQ(gate.audits(), 2u);
  EXPECT_EQ(gate.auditsAt("epoch_publish"), 2u);
  EXPECT_EQ(gate.auditsAt("reconfig_full"), 0u);
  // ...and a healthy rule leaves no trace anywhere.
  EXPECT_EQ(gate.violations(), 0u);
  EXPECT_EQ(fm.oracleViolations(), 0u);
  EXPECT_TRUE(fm.allPublishedOk());
  EXPECT_EQ(oracleAnomalies(fm.flightRecorder()), 0u);
}

TEST(FabricManagerTest, PlantedViolationRecordsAnomalyButNeverBlocks) {
  Fixture fx;
  verify::OracleGate::Options gateOptions;
  gateOptions.plantViolation = true;
  verify::OracleGate gate(gateOptions);
  FabricManager::Options options;
  options.oracle = &gate;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  const std::vector<std::uint8_t> nodesUp = allAlive(fx.topo.nodeCount());
  linksUp[1] = 0;
  const PublishResult result =
      fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/false);

  // Enforcement is observational: the epoch still went live (driven-mode
  // determinism), but the violation is counted and flight-recorded.
  EXPECT_TRUE(result.published);
  EXPECT_EQ(fm.currentEpoch(), 1u);
  EXPECT_GE(gate.violations(), 1u);
  EXPECT_EQ(fm.oracleViolations(), 1u);
  EXPECT_GE(oracleAnomalies(fm.flightRecorder()), 1u);
  // The oracle verdict must not be conflated with routing verification.
  EXPECT_TRUE(fm.allPublishedOk());
}

TEST(FabricManagerTest, ServiceModeRebuildsAuditThroughTheSameGate) {
  Fixture fx;
  verify::OracleGate::Options gateOptions;
  gateOptions.plantViolation = true;
  verify::OracleGate gate(gateOptions);
  FabricManager::Options options;
  options.oracle = &gate;
  FabricManager fm(fx.topo, *fx.baseline.table, options);

  fm.onLinkStateChanged(100, 3, false);
  fm.startService();
  ASSERT_TRUE(waitUntil([&] { return fm.rebuilds() >= 1; }));
  fm.stopService();

  EXPECT_GE(gate.auditsAt("epoch_publish"), 1u);
  EXPECT_EQ(gate.audits(), fm.rebuilds());  // one audit per published epoch
  EXPECT_EQ(fm.oracleViolations(), 1u);
  EXPECT_GE(oracleAnomalies(fm.flightRecorder()), 1u);
  EXPECT_EQ(fm.currentEpoch(), 1u);  // publish still happened
}

}  // namespace
}  // namespace downup::fabric
