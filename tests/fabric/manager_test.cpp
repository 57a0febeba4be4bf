// FabricManager: driven-mode publishes match the Reconfigurator reference
// bit for bit, service mode coalesces fault bursts (flap cancel-out, union
// dirty set), the FaultController sink feeds effective transitions, and an
// attached OracleGate audits every epoch publish from both writer modes —
// recording a kOracleViolation anomaly without ever blocking the publish —
// and incremental publishes build from the healthy or the newest-full
// anchor, tagging every full rebuild with why neither served.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/manager.hpp"
#include "fault/controller.hpp"
#include "fault/schedule.hpp"
#include "obs/flight_recorder.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "util/span_recorder.hpp"
#include "util/thread_pool.hpp"
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

bool isTreeLink(const routing::TurnPermissions& rule, topo::LinkId l) {
  const routing::Dir d = rule.dir(2 * l);
  return d == routing::Dir::kLuTree || d == routing::Dir::kRdTree;
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

/// The value of `key` on span `span`, or -1 when absent.
double spanArg(const util::SpanRecorder::Span& span, const char* key) {
  for (std::uint8_t i = 0; i < span.argCount; ++i) {
    if (std::strcmp(span.args[i].key, key) == 0) return span.args[i].value;
  }
  return -1.0;
}

// Driven publishes pick their parent among two anchors: the healthy
// baseline, then the newest full rebuild F.  Cross links a and b and tree
// link t go down and come back up in nested order; a link-up is served
// incrementally whenever every link still dead is a cross link of the
// anchor it is built from.
TEST(FabricManagerTest, DrivenPublishesBuildFromHealthyOrNewestFullAnchor) {
  Fixture fx;
  const topo::Topology& topo = fx.topo;
  const routing::TurnPermissions& healthyRule = *fx.baseline.perms;
  const std::vector<std::uint8_t> nodesUp = allAlive(topo.nodeCount());

  topo::LinkId t = topo.linkCount();
  topo::LinkId a = topo.linkCount();
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    if (isTreeLink(healthyRule, l)) {
      if (t == topo.linkCount()) t = l;
    } else if (a == topo.linkCount()) {
      a = l;
    }
  }
  ASSERT_LT(t, topo.linkCount());
  ASSERT_LT(a, topo.linkCount());
  std::vector<std::uint8_t> fullMask = allAlive(topo.linkCount());
  fullMask[a] = 0;
  fullMask[t] = 0;
  const fault::ReconfigOutcome full = fx.reconf.rebuild(fullMask, nodesUp);
  ASSERT_TRUE(full.ok());
  topo::LinkId b = topo.linkCount();
  for (topo::LinkId l = 0; l < topo.linkCount() && b == topo.linkCount();
       ++l) {
    if (l != a && l != t && !isTreeLink(healthyRule, l) &&
        !isTreeLink(*full.perms, l)) {
      b = l;
    }
  }
  ASSERT_LT(b, topo.linkCount());

  struct Step {
    topo::LinkId link;
    bool alive;
    bool incremental;
    Anchor parent;
    bool cleanDirtySet;  // a revival back onto the anchor's own mask
  };
  const Step steps[] = {
      {a, false, true, Anchor::kHealthy, false},
      {t, false, false, Anchor::kHealthy, false},
      {b, false, true, Anchor::kNewestFull, false},
      {b, true, true, Anchor::kNewestFull, true},
      {t, true, true, Anchor::kHealthy, false},
      {a, true, true, Anchor::kHealthy, true},
  };

  const auto run = [&](util::ThreadPool* pool, util::SpanRecorder* spans,
                       FabricMetrics* metrics) {
    FabricManager::Options options;
    options.pool = pool;
    options.spans = spans;
    options.metrics = metrics;
    FabricManager fm(topo, *fx.baseline.table, options);
    Reader reader = fm.makeReader();
    std::vector<std::uint8_t> linksUp = allAlive(topo.linkCount());
    std::vector<std::uint64_t> fingerprints;
    for (const Step& step : steps) {
      SCOPED_TRACE(testing::Message() << "link " << step.link
                                      << (step.alive ? " up" : " down"));
      linksUp[step.link] = step.alive ? 1 : 0;
      const double fraction = fm.incrementalDirtyFraction(linksUp, nodesUp);
      const PublishResult result =
          fm.publishFromMasks(linksUp, nodesUp, /*incremental=*/true);
      EXPECT_TRUE(result.ok);
      EXPECT_EQ(result.incremental, step.incremental);
      const std::uint32_t n = topo.nodeCount();
      if (step.incremental) {
        EXPECT_EQ(result.parent, step.parent);
        EXPECT_EQ(result.rebuiltDestinations == 0, step.cleanDirtySet);
        EXPECT_DOUBLE_EQ(fraction,
                         std::max(1u, result.rebuiltDestinations) /
                             static_cast<double>(n));
        const routing::TurnPermissions& rule =
            step.parent == Anchor::kHealthy ? healthyRule : *full.perms;
        const routing::RoutingTable masked = routing::RoutingTable::build(
            rule, nullptr, channelMask(topo, linksUp));
        EXPECT_TRUE(fm.acquire(reader).table().identicalTo(masked));
      } else {
        EXPECT_EQ(result.rebuiltDestinations, n);
        EXPECT_DOUBLE_EQ(fraction, 1.0);
        EXPECT_EQ(fm.acquire(reader).table().fingerprint(),
                  full.table->fingerprint());
      }
      fingerprints.push_back(fm.acquire(reader).table().fingerprint());
    }
    EXPECT_EQ(fm.rebuilds(), std::size(steps));
    EXPECT_EQ(fm.rebuildsIncremental(), std::size(steps) - 1);
    return fingerprints;
  };

  util::SpanRecorder spans;
  FabricMetrics metrics;
  const std::vector<std::uint64_t> serial = run(nullptr, &spans, &metrics);
  // Back to all-alive: the baseline's own blocks, republished.
  EXPECT_EQ(serial.back(), fx.baseline.table->fingerprint());

  // Each publish's root span says which anchor served it or, for the full
  // rebuild, why neither did.
  std::vector<util::SpanRecorder::Span> roots;
  for (const auto& span : spans.snapshot()) {
    if (span.parent == util::SpanRecorder::kNoParent &&
        std::strcmp(span.name, "rebuild") == 0) {
      roots.push_back(span);
    }
  }
  ASSERT_EQ(roots.size(), std::size(steps));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "publish " << i);
    if (steps[i].incremental) {
      EXPECT_EQ(spanArg(roots[i], "parent"),
                static_cast<double>(steps[i].parent));
      EXPECT_EQ(spanArg(roots[i], "healthy"), -1.0);
    } else {
      EXPECT_EQ(spanArg(roots[i], "healthy"),
                static_cast<double>(AnchorMiss::kDeadTreeChannel));
      EXPECT_EQ(spanArg(roots[i], "anchor"),
                static_cast<double>(AnchorMiss::kAbsent));
      EXPECT_EQ(spanArg(roots[i], "parent"), -1.0);
    }
  }
  EXPECT_EQ(metrics.fullRebuildsByHealthyMiss[static_cast<std::size_t>(
                                                  AnchorMiss::kDeadTreeChannel)]
                .load(),
            1u);
  EXPECT_EQ(metrics.rebuildsIncremental.load(), std::size(steps) - 1);

  util::ThreadPool four(4);
  EXPECT_EQ(run(&four, nullptr, nullptr), serial);
}

TEST(FabricManagerTest, FullDrivenPublishRecordsNotRequested) {
  Fixture fx;
  util::SpanRecorder spans;
  FabricMetrics metrics;
  FabricManager::Options options;
  options.spans = &spans;
  options.metrics = &metrics;
  FabricManager fm(fx.topo, *fx.baseline.table, options);
  std::vector<std::uint8_t> linksUp = allAlive(fx.topo.linkCount());
  linksUp[2] = 0;
  fm.publishFromMasks(linksUp, allAlive(fx.topo.nodeCount()),
                      /*incremental=*/false);

  const auto all = spans.snapshot();
  ASSERT_FALSE(all.empty());
  ASSERT_STREQ(all[0].name, "rebuild");
  EXPECT_EQ(spanArg(all[0], "healthy"),
            static_cast<double>(AnchorMiss::kNotRequested));
  EXPECT_EQ(spanArg(all[0], "anchor"),
            static_cast<double>(AnchorMiss::kNotRequested));
  EXPECT_EQ(metrics.fullRebuildsByHealthyMiss[static_cast<std::size_t>(
                                                  AnchorMiss::kNotRequested)]
                .load(),
            1u);
  std::ostringstream json;
  metrics.writeJson(json);
  EXPECT_NE(json.str().find("\"fullRebuildsByHealthyMiss\":{"
                            "\"notRequested\":1,\"absent\":0,"),
            std::string::npos)
      << json.str();
}

}  // namespace
}  // namespace downup::fabric
