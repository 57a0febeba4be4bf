#include "verify/oracle.hpp"

#include <algorithm>
#include <cstddef>

#include "topology/topology.hpp"

namespace downup::verify {

using routing::kNoPath;
using routing::TurnPermissions;
using topo::Topology;

namespace {

constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);

bool aliveChannel(std::span<const std::uint8_t> mask, ChannelId c) {
  return mask.empty() || mask[c] != 0;
}

/// Peels vertices of out-degree zero until convergence and reports the
/// residual (the greatest fixed point of "has a non-drainable successor").
/// `adjacency` is CSR over the vertex universe [0, n); `inCore` receives
/// one byte per vertex.  Returns the residual size.
struct PeelGraph {
  std::vector<std::uint32_t> offsets;  // n + 1
  std::vector<ChannelId> targets;
  std::vector<std::uint8_t> member;  // vertex participates at all
};

std::uint32_t peelResidual(const PeelGraph& g, std::vector<std::uint8_t>& inCore) {
  const std::size_t n = g.member.size();
  std::vector<std::uint32_t> outdeg(n, 0);
  // Reverse adjacency, counting-sort style.
  std::vector<std::uint32_t> rOffsets(n + 1, 0);
  for (const ChannelId t : g.targets) ++rOffsets[t + 1];
  for (std::size_t v = 0; v < n; ++v) rOffsets[v + 1] += rOffsets[v];
  std::vector<ChannelId> rSources(g.targets.size());
  {
    std::vector<std::uint32_t> cursor(rOffsets.begin(), rOffsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        rSources[cursor[g.targets[e]]++] = static_cast<ChannelId>(v);
      }
    }
  }
  std::vector<ChannelId> worklist;
  std::uint32_t live = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!g.member[v]) continue;
    ++live;
    outdeg[v] = g.offsets[v + 1] - g.offsets[v];
    if (outdeg[v] == 0) worklist.push_back(static_cast<ChannelId>(v));
  }
  std::uint32_t peeled = 0;
  while (!worklist.empty()) {
    const ChannelId v = worklist.back();
    worklist.pop_back();
    ++peeled;
    for (std::uint32_t e = rOffsets[v]; e < rOffsets[v + 1]; ++e) {
      const ChannelId p = rSources[e];
      if (--outdeg[p] == 0) worklist.push_back(p);
    }
  }
  inCore.assign(n, 0);
  if (peeled == live) return 0;
  for (std::size_t v = 0; v < n; ++v) {
    inCore[v] = g.member[v] && outdeg[v] > 0;
  }
  return live - peeled;
}

/// Walks successor edges inside the residual core until a vertex repeats;
/// the suffix from its first visit is a genuine cycle (every core vertex
/// keeps at least one successor in the core, so the walk never stalls).
std::vector<ChannelId> extractCoreCycle(const PeelGraph& g,
                                        const std::vector<std::uint8_t>& inCore) {
  const std::size_t n = inCore.size();
  ChannelId start = kUnseen;
  for (std::size_t v = 0; v < n; ++v) {
    if (inCore[v]) {
      start = static_cast<ChannelId>(v);
      break;
    }
  }
  if (start == kUnseen) return {};
  std::vector<std::uint32_t> walkIndex(n, kUnseen);
  std::vector<ChannelId> walk;
  ChannelId cur = start;
  while (walkIndex[cur] == kUnseen) {
    walkIndex[cur] = static_cast<std::uint32_t>(walk.size());
    walk.push_back(cur);
    ChannelId next = kUnseen;
    for (std::uint32_t e = g.offsets[cur]; e < g.offsets[cur + 1]; ++e) {
      if (inCore[g.targets[e]]) {
        next = g.targets[e];
        break;
      }
    }
    if (next == kUnseen) return {};  // unreachable for a true residual
    cur = next;
  }
  return {walk.begin() + walkIndex[cur], walk.end()};
}

/// CSR over the alive channels: edge c -> c' for every alive output c' of
/// dst(c) that the rule lets a packet turn onto from c — the permission
/// CDG — or, with `anyTurn`, every alive output but c's U-turn (the
/// candidates of the table's any-turn rows).  Targets keep
/// outputChannels order.
PeelGraph buildTurnGraph(const TurnPermissions& perms,
                         std::span<const std::uint8_t> alive, bool anyTurn) {
  const Topology& topo = perms.topology();
  const std::uint32_t channels = topo.channelCount();
  const auto follows = [&](NodeId via, ChannelId c, ChannelId out) {
    return aliveChannel(alive, out) &&
           (anyTurn ? out != Topology::reverseChannel(c)
                    : perms.allowed(via, c, out));
  };
  PeelGraph g;
  g.member.assign(channels, 0);
  g.offsets.assign(channels + 1, 0);
  for (ChannelId c = 0; c < channels; ++c) {
    if (!aliveChannel(alive, c)) continue;
    g.member[c] = 1;
    const topo::NodeId via = topo.channelDst(c);
    for (const ChannelId out : topo.outputChannels(via)) {
      if (follows(via, c, out)) ++g.offsets[c + 1];
    }
  }
  for (ChannelId c = 0; c < channels; ++c) g.offsets[c + 1] += g.offsets[c];
  g.targets.resize(g.offsets[channels]);
  {
    std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (ChannelId c = 0; c < channels; ++c) {
      if (!g.member[c]) continue;
      const topo::NodeId via = topo.channelDst(c);
      for (const ChannelId out : topo.outputChannels(via)) {
        if (follows(via, c, out)) g.targets[cursor[c]++] = out;
      }
    }
  }
  return g;
}

/// CSR of the occupancy graph: hold and request edges over the channels
/// they touch.  Edges touching dead channels are dropped (their worms were
/// quarantined) and vertices never touched stay out of the peel universe.
PeelGraph buildStateGraph(std::uint32_t channels,
                          std::span<const std::uint8_t> alive,
                          std::span<const OccupancyEdge> holds,
                          std::span<const OccupancyEdge> requests) {
  PeelGraph g;
  g.member.assign(channels, 0);
  g.offsets.assign(channels + 1, 0);
  const auto keep = [&](const OccupancyEdge& e) {
    return e.from < channels && e.to < channels &&
           aliveChannel(alive, e.from) && aliveChannel(alive, e.to);
  };
  for (const auto edges : {holds, requests}) {
    for (const OccupancyEdge& e : edges) {
      if (!keep(e)) continue;
      g.member[e.from] = 1;
      g.member[e.to] = 1;
      ++g.offsets[e.from + 1];
    }
  }
  for (ChannelId c = 0; c < channels; ++c) g.offsets[c + 1] += g.offsets[c];
  g.targets.resize(g.offsets[channels]);
  {
    std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (const auto edges : {holds, requests}) {
      for (const OccupancyEdge& e : edges) {
        if (keep(e)) g.targets[cursor[e.from]++] = e.to;
      }
    }
  }
  return g;
}

/// True when `got` holds exactly the members of `from` that `keep` admits,
/// in `from`'s order.
template <class Keep>
bool rowMatches(std::span<const ChannelId> got, std::span<const ChannelId> from,
                Keep keep) {
  std::size_t k = 0;
  for (const ChannelId c : from) {
    if (!keep(c)) continue;
    if (k == got.size() || got[k] != c) return false;
    ++k;
  }
  return k == got.size();
}

/// Layer 3, one destination at a time, counted into `report`.  d's steps
/// row is copied once through the accessor, so the table's own mask
/// applies.  With `checkSteps` the row is checked against the fixed point
/// of the rule graph; every row keyed by d is then checked against it.
/// Channels are visited in id order, so the table's rows and both successor
/// CSRs stream through the cache.
void auditTable(const routing::RoutingTable& table, const Topology& topo,
                const PeelGraph& rule, const PeelGraph& anyTurn,
                bool checkSteps, OracleReport& report) {
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();
  const auto successors = [](const PeelGraph& g, ChannelId c) {
    return std::span<const ChannelId>(g.targets.data() + g.offsets[c],
                                      g.offsets[c + 1] - g.offsets[c]);
  };
  std::vector<std::uint16_t> row(channels);
  for (NodeId dst = 0; dst < n; ++dst) {
    for (ChannelId c = 0; c < channels; ++c) row[c] = table.channelSteps(dst, c);

    // Injection has no in-channel constraint: every alive output that
    // starts a minimal legal path is a first hop, and distance() is its
    // steps value.
    for (NodeId src = 0; src < n; ++src) {
      const std::span<const ChannelId> outputs = topo.outputChannels(src);
      std::uint16_t first = kNoPath;
      if (src != dst) {
        for (const ChannelId o : outputs) {
          if (rule.member[o]) first = std::min(first, row[o]);
        }
        if (table.distance(src, dst) != first) ++report.candidateViolations;
      }
      if (!rowMatches(table.firstChannels(src, dst), outputs, [&](ChannelId o) {
            return first != kNoPath && rule.member[o] && row[o] == first;
          })) {
        ++report.candidateViolations;
      }
    }

    for (ChannelId c = 0; c < channels; ++c) {
      const std::span<const ChannelId> legal = successors(rule, c);
      const std::uint16_t steps = row[c];
      const bool intoDst = topo.channelDst(c) == dst;
      if (checkSteps) {
        // In 32 bits, so that 1 + min never wraps into kNoPath.
        std::uint32_t want = kUnseen;  // dead, or no finite successor
        if (rule.member[c]) {
          if (intoDst) {
            want = 1;
          } else {
            std::uint16_t best = kNoPath;
            for (const ChannelId s : legal) best = std::min(best, row[s]);
            if (best != kNoPath) want = best + 1u;
          }
        }
        if ((steps == kNoPath ? kUnseen : steps) != want) {
          ++report.distanceMismatches;
        }
      }
      // Continuations one step closer: the legal row keeps the rule's
      // successors, the any-turn row every alive output but the U-turn.
      const bool continues =
          rule.member[c] && steps != kNoPath && steps > 1 && !intoDst;
      const auto closer = [&](ChannelId s) {
        return continues && row[s] + 1 == steps;
      };
      if (!rowMatches(table.nextChannels(c, dst), legal, closer)) {
        ++report.candidateViolations;
      }
      if (!rowMatches(table.nextChannelsAnyTurn(c, dst),
                      successors(anyTurn, c), closer)) {
        ++report.candidateViolations;
      }
    }
  }
}

}  // namespace

OracleReport runOracle(const OracleInput& input) {
  OracleReport report;
  const TurnPermissions& perms = *input.perms;
  const std::uint32_t channels = perms.topology().channelCount();

  // Layer 1: rule check.
  const PeelGraph rule =
      buildTurnGraph(perms, input.channelAlive, /*anyTurn=*/false);
  report.ruleEdges = rule.targets.size();
  for (ChannelId c = 0; c < channels; ++c) report.aliveChannels += rule.member[c];
  std::vector<std::uint8_t> core;
  report.ruleResidual = peelResidual(rule, core);
  report.ruleDeadlockFree = report.ruleResidual == 0;
  if (!report.ruleDeadlockFree) report.ruleCycle = extractCoreCycle(rule, core);

  // Layer 2: state check.
  if (!input.holdEdges.empty() || !input.requestEdges.empty()) {
    const PeelGraph state = buildStateGraph(channels, input.channelAlive,
                                            input.holdEdges, input.requestEdges);
    report.stateResidual = peelResidual(state, core);
    report.stateDrains = report.stateResidual == 0;
    if (!report.stateDrains) report.stateCycle = extractCoreCycle(state, core);
    const Topology& topo = perms.topology();
    for (const OccupancyEdge& e : input.holdEdges) {
      if (e.from >= channels || e.to >= channels) continue;
      const NodeId via = topo.channelDst(e.from);
      if (topo.channelSrc(e.to) != via || !perms.allowed(via, e.from, e.to)) {
        ++report.crossEpochHolds;
      }
    }
  }

  // Layer 3: table cross-check.
  if (input.table != nullptr) {
    const PeelGraph anyTurn =
        buildTurnGraph(perms, input.channelAlive, /*anyTurn=*/true);
    auditTable(*input.table, perms.topology(), rule, anyTurn,
               input.deepDistanceCheck, report);
    report.tableConsistent =
        report.candidateViolations == 0 && report.distanceMismatches == 0;
  }
  return report;
}

std::string OracleReport::describe() const {
  if (ok()) return "ok";
  std::string out = "VIOLATION:";
  if (!ruleDeadlockFree) {
    out += " rule residual=" + std::to_string(ruleResidual) +
           " cycle=" + std::to_string(ruleCycle.size());
  }
  if (!stateDrains) {
    out += " state residual=" + std::to_string(stateResidual) +
           " cycle=" + std::to_string(stateCycle.size());
  }
  if (!tableConsistent) {
    out += " table candidates=" + std::to_string(candidateViolations) +
           " distances=" + std::to_string(distanceMismatches);
  }
  return out;
}

}  // namespace downup::verify
