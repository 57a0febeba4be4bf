#include "routing/verify.hpp"

#include <gtest/gtest.h>

#include "core/downup_routing.hpp"
#include "routing/updown.hpp"
#include "topology/generate.hpp"
#include "topology/properties.hpp"

namespace downup::routing {
namespace {

using tree::CoordinatedTree;
using tree::TreePolicy;

CoordinatedTree m1Tree(const Topology& topo) {
  util::Rng rng(1);
  return CoordinatedTree::build(topo, TreePolicy::kM1SmallestFirst, rng);
}

TEST(VerifyRouting, HealthyRoutingPassesWithExactDiagnostics) {
  const Topology topo = topo::complete(5);
  const Routing routing = buildUpDown(topo, m1Tree(topo));
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.cycleWitness.empty());
  EXPECT_EQ(report.unreachablePairs, 0u);
  // Complete graph: every legal path is the direct link.
  EXPECT_DOUBLE_EQ(report.averagePathLength, 1.0);
  EXPECT_DOUBLE_EQ(report.averageStretch, 1.0);
  EXPECT_DOUBLE_EQ(report.maxStretch, 1.0);
}

TEST(VerifyRouting, CyclicPermissionsAreReported) {
  const Topology topo = topo::ring(5);
  const CoordinatedTree ct = m1Tree(topo);
  TurnPermissions perms(topo, classifyUpDown(topo, ct),
                        TurnSet::allAllowed());
  const Routing routing("broken", std::move(perms));
  const VerifyReport report = verifyRouting(routing);
  EXPECT_FALSE(report.deadlockFree);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.cycleWitness.size(), 3u);
  // The ring with all turns is still connected though.
  EXPECT_TRUE(report.connected);
}

TEST(VerifyRouting, DisconnectionIsCounted) {
  const Topology topo = topo::star(5);
  const CoordinatedTree ct = m1Tree(topo);
  TurnPermissions perms(topo, classifyUpDown(topo, ct), upDownTurnSet());
  perms.blockAt(0, Dir::kLuTree, Dir::kRdTree);  // hub may not turn
  const Routing routing("cut", std::move(perms));
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.deadlockFree);
  EXPECT_FALSE(report.connected);
  // 4 leaves, ordered pairs among them: 12 unreachable.
  EXPECT_EQ(report.unreachablePairs, 12u);
  EXPECT_FALSE(report.ok());
}

TEST(VerifyRouting, StretchReflectsDetours) {
  const Topology topo = topo::ring(5);
  const Routing routing = buildUpDown(topo, m1Tree(topo));
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.ok());
  // 2 -> 4 detours 3 hops instead of 2 (see routing_table_test).
  EXPECT_GT(report.maxStretch, 1.0);
  EXPECT_GE(report.averageStretch, 1.0);
  EXPECT_LE(report.averageStretch, report.maxStretch);
  EXPECT_GE(report.averagePathLength, topo::averageDistance(topo));
}

// The report of a seeded 64-switch DOWN/UP fabric, recorded when
// verifyRouting still looped sources outside and destinations inside.
// Every field is bit-identical under the destination-outer loop except
// averageStretch, whose summation order changed.
TEST(VerifyRouting, ReportIsPinnedForSeededDownUpFabric) {
  util::Rng rng(2004);
  const Topology topo = topo::randomIrregular(64, {.maxPorts = 4}, rng);
  const Routing routing = core::buildDownUp(topo, m1Tree(topo));
  const VerifyReport report = verifyRouting(routing);
  EXPECT_TRUE(report.deadlockFree);
  EXPECT_TRUE(report.connected);
  EXPECT_EQ(report.unreachablePairs, 0u);
  EXPECT_EQ(report.averagePathLength, 0x1.f34d34d34d34dp+1);
  EXPECT_EQ(report.maxStretch, 0x1p+2);
  EXPECT_NEAR(report.averageStretch, 0x1.3d5a7afd05254p+0, 1e-12);
}

TEST(VerifyReportDescribe, MentionsTheImportantBits) {
  const Topology topo = topo::ring(5);
  const Routing good = buildUpDown(topo, m1Tree(topo));
  const std::string healthy = verifyRouting(good).describe();
  EXPECT_NE(healthy.find("deadlock-free"), std::string::npos);
  EXPECT_NE(healthy.find("connected"), std::string::npos);

  TurnPermissions perms(topo, classifyUpDown(topo, m1Tree(topo)),
                        TurnSet::allAllowed());
  const Routing bad("bad", std::move(perms));
  const std::string broken = verifyRouting(bad).describe();
  EXPECT_NE(broken.find("CYCLE"), std::string::npos);
}

}  // namespace
}  // namespace downup::routing
