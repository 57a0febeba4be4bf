#include "routing/verify.hpp"

#include <algorithm>
#include <sstream>

#include "routing/cdg.hpp"
#include "topology/properties.hpp"

namespace downup::routing {

std::string VerifyReport::describe() const {
  std::ostringstream out;
  out << (deadlockFree ? "deadlock-free" : "HAS CHANNEL-DEPENDENCY CYCLE")
      << ", " << (connected ? "connected" : "NOT CONNECTED");
  if (unreachablePairs > 0) out << " (" << unreachablePairs << " pairs unreachable)";
  out << ", avg path " << averagePathLength << ", avg stretch "
      << averageStretch << ", max stretch " << maxStretch;
  return out.str();
}

VerifyReport verifyRouting(const Routing& routing) {
  VerifyReport report;
  const auto cdg = checkChannelDependencies(routing.permissions());
  report.deadlockFree = cdg.acyclic;
  report.cycleWitness = cdg.cycle;

  const RoutingTable& table = routing.table();
  const Topology& topo = table.topology();
  const NodeId n = topo.nodeCount();
  double pathSum = 0.0;
  double stretchSum = 0.0;
  std::uint64_t pairs = 0;
  // Destinations outside, so each destination's table block is read once.
  // The topology is undirected: one BFS from d gives every source's graph
  // distance to d.
  for (NodeId d = 0; d < n; ++d) {
    const auto graphDist = topo::bfsDistances(topo, d);
    for (NodeId s = 0; s < n; ++s) {
      if (s == d) continue;
      const std::uint16_t legal = table.distance(s, d);
      if (legal == kNoPath) {
        ++report.unreachablePairs;
        continue;
      }
      pathSum += legal;
      const double stretch =
          graphDist[s] == 0 ? 1.0
                            : static_cast<double>(legal) /
                                  static_cast<double>(graphDist[s]);
      stretchSum += stretch;
      report.maxStretch = std::max(report.maxStretch, stretch);
      ++pairs;
    }
  }
  report.connected = report.unreachablePairs == 0 && n > 0;
  report.averagePathLength =
      pairs == 0 ? 0.0 : pathSum / static_cast<double>(pairs);
  report.averageStretch =
      pairs == 0 ? 0.0 : stretchSum / static_cast<double>(pairs);
  return report;
}

}  // namespace downup::routing
