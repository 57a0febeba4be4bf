#include "fault/reconfigure.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "core/downup_routing.hpp"
#include "routing/cdg.hpp"
#include "tree/coordinated_tree.hpp"
#include "util/rng.hpp"

namespace downup::fault {

using routing::ChannelId;
using routing::Dir;
using routing::DirectionMap;
using routing::kDirCount;
using routing::NodeId;
using routing::RoutingTable;
using routing::TurnPermissions;
using topo::LinkId;
using topo::Topology;

namespace {

constexpr std::uint32_t kNoComp = static_cast<std::uint32_t>(-1);

/// One alive component's DOWN/UP rule, built on its compacted
/// sub-topology.  The sub-topology sits behind a unique_ptr because the rule
/// holds a raw pointer into it.
struct Component {
  std::vector<NodeId> nodeToHost;
  std::vector<ChannelId> channelToHost;
  std::unique_ptr<Topology> sub;
  std::optional<TurnPermissions> rule;
};

/// A dead endpoint kills the link regardless of its own state.
std::vector<std::uint8_t> effectiveLinks(const Topology& topo,
                                         std::span<const std::uint8_t> linkAlive,
                                         std::span<const std::uint8_t> nodeAlive,
                                         std::uint32_t& aliveLinks) {
  const LinkId linkCount = topo.linkCount();
  std::vector<std::uint8_t> effLink(linkCount, 0);
  aliveLinks = 0;
  for (LinkId l = 0; l < linkCount; ++l) {
    const auto [a, b] = topo.linkEnds(l);
    effLink[l] = linkAlive[l] && nodeAlive[a] && nodeAlive[b];
    aliveLinks += effLink[l];
  }
  return effLink;
}

struct ComponentLabels {
  std::vector<std::uint32_t> comp;  // kNoComp for dead nodes
  std::uint32_t count = 0;
  std::uint32_t aliveNodes = 0;
  std::uint64_t sameComponentPairs = 0;
};

/// Labels alive components (DFS over alive nodes through alive links).
ComponentLabels labelComponents(const Topology& topo,
                                std::span<const std::uint8_t> effLink,
                                std::span<const std::uint8_t> nodeAlive) {
  const NodeId n = topo.nodeCount();
  ComponentLabels labels;
  labels.comp.assign(n, kNoComp);
  std::vector<NodeId> stack;
  std::vector<std::uint64_t> sizes;
  for (NodeId v = 0; v < n; ++v) {
    if (!nodeAlive[v] || labels.comp[v] != kNoComp) continue;
    std::uint64_t size = 0;
    labels.comp[v] = labels.count;
    stack.push_back(v);
    ++size;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      const auto neighbors = topo.neighbors(u);
      const auto channels = topo.outputChannels(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (!effLink[Topology::linkOf(channels[i])]) continue;
        const NodeId w = neighbors[i];
        if (labels.comp[w] != kNoComp) continue;
        labels.comp[w] = labels.count;
        stack.push_back(w);
        ++size;
      }
    }
    ++labels.count;
    labels.aliveNodes += static_cast<std::uint32_t>(size);
    labels.sameComponentPairs += size * (size - 1);
  }
  return labels;
}

/// Fills `out`'s pair counts and mean path from its table's reachability
/// summary.  Dead switches reach nothing and are reached by nothing, so
/// every reachable pair is an alive pair; the rule serves its components
/// exactly when the reachable pairs are the same-component pairs.
void summarizeReachability(const ComponentLabels& labels, ReconfigOutcome& out) {
  const std::uint64_t reachable = out.table->reachability().pairs;
  out.unreachablePairs =
      static_cast<std::uint64_t>(out.aliveNodes) * (out.aliveNodes - 1) -
      reachable;
  out.componentsConnected = reachable == labels.sameComponentPairs;
  out.averagePathLength = out.table->averagePathLength();
}

}  // namespace

ReconfigOutcome Reconfigurator::rebuild(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  const NodeId n = topo.nodeCount();
  const LinkId linkCount = topo.linkCount();

  ReconfigOutcome out;
  out.deadlockFree = true;

  util::ScopedSpan partitionSpan(spans_, "partition");
  const std::vector<std::uint8_t> effLink =
      effectiveLinks(topo, linkAlive, nodeAlive, out.aliveLinks);
  const ComponentLabels labels = labelComponents(topo, effLink, nodeAlive);
  out.components = labels.count;
  out.aliveNodes = labels.aliveNodes;
  out.rebuiltDestinations = labels.aliveNodes;

  // Members per component in ascending host order, so a component's M1
  // tree (smallest id first) is the one a direct build on the degraded
  // graph would grow.
  std::vector<std::vector<NodeId>> members(out.components);
  for (NodeId v = 0; v < n; ++v) {
    if (labels.comp[v] != kNoComp) members[labels.comp[v]].push_back(v);
  }
  partitionSpan.arg("components", labels.count);
  partitionSpan.arg("aliveNodes", labels.aliveNodes);
  partitionSpan.close();

  // Give every component with at least two switches its own rule: its
  // compacted topology, coordinated tree (M1 is deterministic; the RNG is
  // never consulted) and DOWN/UP rule with the repair and release passes.
  std::vector<Component> parts;
  std::vector<NodeId> hostToSub(n, topo::kInvalidNode);
  for (const auto& m : members) {
    if (m.size() < 2) continue;
    Component part;
    part.nodeToHost = m;
    util::ScopedSpan subtopoSpan(spans_, "subtopo");
    subtopoSpan.arg("nodes", m.size());
    for (NodeId i = 0; i < m.size(); ++i) hostToSub[m[i]] = i;
    part.sub = std::make_unique<Topology>(static_cast<NodeId>(m.size()));
    for (LinkId l = 0; l < linkCount; ++l) {
      if (!effLink[l]) continue;
      const auto [a, b] = topo.linkEnds(l);
      if (labels.comp[a] != labels.comp[m[0]]) continue;
      // addLink preserves endpoint order, so sub channel 2k+p is host
      // channel 2l+p: the channel map preserves parity.
      part.sub->addLink(hostToSub[a], hostToSub[b]);
      part.channelToHost.push_back(2 * l);
      part.channelToHost.push_back(2 * l + 1);
    }
    subtopoSpan.close();
    util::Rng rng(0);
    util::ScopedSpan treeSpan(spans_, "tree");
    const auto ct = tree::CoordinatedTree::build(
        *part.sub, tree::TreePolicy::kM1SmallestFirst, rng);
    treeSpan.close();
    part.rule = core::buildDownUpRule(*part.sub, ct, {.spans = spans_});

    util::ScopedSpan verifySpan(spans_, "verify");
    out.deadlockFree = out.deadlockFree &&
                       routing::checkChannelDependencies(*part.rule).acyclic;
    verifySpan.close();
    parts.push_back(std::move(part));
  }

  // Merge the per-component rules into host numbering.  Channel-dependency
  // graphs of distinct components are disjoint, so the merged rule is
  // acyclic iff every component's is.  Dead channels keep an arbitrary
  // direction: the table below masks them out.
  util::ScopedSpan mergeSpan(spans_, "merge");
  mergeSpan.arg("parts", parts.size());
  DirectionMap hostDirs(topo.channelCount(), Dir::kRdTree);
  for (const Component& part : parts) {
    for (ChannelId c = 0; c < part.channelToHost.size(); ++c) {
      hostDirs[part.channelToHost[c]] = part.rule->dir(c);
    }
  }
  out.perms = std::make_unique<TurnPermissions>(topo, std::move(hostDirs),
                                                core::downUpTurnSet());
  for (const Component& part : parts) {
    for (NodeId v = 0; v < part.nodeToHost.size(); ++v) {
      for (std::size_t i = 0; i < kDirCount; ++i) {
        for (std::size_t j = 0; j < kDirCount; ++j) {
          const Dir d1 = static_cast<Dir>(i);
          const Dir d2 = static_cast<Dir>(j);
          if (part.rule->isReleasedAt(v, d1, d2)) {
            out.perms->releaseAt(part.nodeToHost[v], d1, d2);
          }
          if (part.rule->isBlockedAt(v, d1, d2)) {
            out.perms->blockAt(part.nodeToHost[v], d1, d2);
          }
        }
      }
    }
  }
  mergeSpan.close();

  // One table over the host topology under the alive-channel mask: pairs in
  // different components have no legal path, since no alive channel joins
  // them.
  out.table = std::make_unique<RoutingTable>(RoutingTable::build(
      *out.perms, pool_, channelAliveWords(linkAlive, nodeAlive), spans_));
  util::ScopedSpan verifySpan(spans_, "verify");
  summarizeReachability(labels, out);
  return out;
}

std::vector<std::uint64_t> Reconfigurator::channelAliveWords(
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  std::vector<std::uint64_t> words((topo.channelCount() + 63) / 64, 0);
  for (LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (!(linkAlive[l] && nodeAlive[a] && nodeAlive[b])) continue;
    for (const ChannelId c : {2 * l, 2 * l + 1}) {
      words[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return words;
}

double Reconfigurator::incrementalDirtyFraction(
    const routing::RoutingTable& anchor,
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const NodeId n = topo_->nodeCount();
  if (n == 0) return 1.0;
  const std::vector<std::uint64_t> alive =
      channelAliveWords(linkAlive, nodeAlive);
  const std::uint32_t dirty = anchor.dirtyDestinationCount(alive);
  // Never report zero work: even an empty dirty set pays the delta scan.
  return std::max(1.0 / static_cast<double>(n),
                  static_cast<double>(dirty) / static_cast<double>(n));
}

std::optional<ReconfigOutcome> Reconfigurator::tryIncremental(
    const routing::RoutingTable& anchor,
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  const Topology& topo = *topo_;
  const std::vector<std::uint64_t> alive =
      channelAliveWords(linkAlive, nodeAlive);

  // rebuildDead refuses a channel that is alive now but was dead in the
  // anchor: the anchor's turn rule never classified it.
  std::vector<NodeId> dirty;
  std::optional<RoutingTable> table =
      RoutingTable::rebuildDead(anchor, pool_, alive, &dirty, spans_);
  if (!table) return std::nullopt;

  ReconfigOutcome out;
  out.incremental = true;
  out.rebuiltDestinations = static_cast<std::uint32_t>(dirty.size());
  out.perms = std::make_unique<TurnPermissions>(anchor.permissions());
  out.table = std::make_unique<RoutingTable>(std::move(*table));
  out.table->rebindPermissions(*out.perms);

  util::ScopedSpan partitionSpan(spans_, "partition");
  const std::vector<std::uint8_t> effLink =
      effectiveLinks(topo, linkAlive, nodeAlive, out.aliveLinks);
  const ComponentLabels labels = labelComponents(topo, effLink, nodeAlive);
  out.components = labels.count;
  out.aliveNodes = labels.aliveNodes;
  partitionSpan.arg("components", labels.count);
  partitionSpan.arg("aliveNodes", labels.aliveNodes);
  partitionSpan.close();

  util::ScopedSpan verifySpan(spans_, "verify");
  // The anchor's channel-dependency graph restricted to the alive channels
  // lost only vertices and edges, so it is acyclic whenever the anchor's
  // was.  The check runs on alive channels only: the directions a full
  // rebuild leaves on dead channels are arbitrary, and no packet can take
  // a dead channel.
  out.deadlockFree =
      routing::checkChannelDependencies(*out.perms, alive).acyclic;

  // Cross-component pairs are unreachable by design; a within-component
  // unreachable pair means the anchor's tree cannot serve the degraded
  // graph (e.g. the failure cut the region the turn rule funnels traffic
  // through), and only re-rooting can.
  summarizeReachability(labels, out);
  verifySpan.close();
  if (!out.ok()) return std::nullopt;
  return out;
}

ReconfigOutcome Reconfigurator::rebuildIncremental(
    const routing::RoutingTable& prevTable,
    std::span<const std::uint8_t> linkAlive,
    std::span<const std::uint8_t> nodeAlive) const {
  std::optional<ReconfigOutcome> out =
      tryIncremental(prevTable, linkAlive, nodeAlive);
  if (out) return std::move(*out);
  return rebuild(linkAlive, nodeAlive);
}

}  // namespace downup::fault
