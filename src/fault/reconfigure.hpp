// Online DOWN/UP reconfiguration: rebuild the coordinated tree, the
// Definition-5 turn rule (with the repair and release passes) and the
// shortest-path table on whatever topology is left after faults, expressed
// in the ORIGINAL topology's node/channel numbering so a running simulator
// can hot-swap the table without renumbering any of its channel state.
//
// The degraded graph may be disconnected (node failures isolate switches,
// link failures can split the network).  Every alive connected component
// with at least two switches gets its own rule — its own compacted
// sub-topology, coordinated tree and DOWN/UP rule — and the per-component
// rules are merged into host numbering, where one RoutingTable::build under
// the alive-channel mask routes them all.  Channel-dependency graphs of
// distinct components are disjoint, so the merged rule is deadlock-free iff
// each component's rule is; pairs in different components stay unreachable
// and are reported for the engine to drop with attribution.
//
// The incremental path (tryIncremental) keeps an anchor table's turn rule
// and rebuilds only the destinations a newly dead channel can touch.  The
// anchor is whatever table the caller picks: FabricManager tries the
// healthy baseline and then the newest full rebuild (fabric/manager.hpp),
// and rebuildIncremental takes the table it is handed and falls back to
// rebuild() when that table cannot serve the masks.
//
// Both rebuild paths verify an outcome with the same two checks: the
// turn rule's channel-dependency graph is acyclic (checkChannelDependencies,
// per component on the full path, on the alive channels of the host rule
// on the incremental one) and the host table's reachability summary
// accounts for every within-component pair.  The independent oracle
// (verify/gate.hpp) audits what goes live, once per epoch, in
// FabricManager's publish; a Reconfigurator outcome that is never published
// is not audited.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "routing/routing_table.hpp"

namespace downup::fault {

/// One rebuilt routing epoch.  `table` indexes the ORIGINAL topology's
/// channels; `perms` (which `table` references) lives alongside it.
struct ReconfigOutcome {
  std::unique_ptr<routing::TurnPermissions> perms;
  std::unique_ptr<routing::RoutingTable> table;

  unsigned components = 0;      // alive components (isolated switches count)
  std::uint32_t aliveNodes = 0;
  std::uint32_t aliveLinks = 0;
  /// Ordered alive-node pairs with no legal path (cross-component pairs
  /// plus any within-component unreachability — the latter is a bug and
  /// implies !deadlockFree or a verify failure).
  std::uint64_t unreachablePairs = 0;
  /// Every component's channel-dependency graph verified acyclic.
  bool deadlockFree = false;
  /// Every within-component ordered pair reachable on legal paths.
  bool componentsConnected = false;
  /// Mean legal hop count over reachable pairs, across components.
  double averagePathLength = 0.0;
  /// Epoch was produced by the incremental path: the anchor's turn rule
  /// kept, only dirty destinations rebuilt.
  bool incremental = false;
  /// Destinations whose table rows were recomputed (aliveNodes on a full
  /// rebuild; the incremental path's dirty-set size otherwise).
  std::uint32_t rebuiltDestinations = 0;

  bool ok() const noexcept { return deadlockFree && componentsConnected; }
};

class Reconfigurator {
 public:
  /// `topo` is the healthy (full) topology; it must outlive the
  /// reconfigurator and every outcome it produces.  `pool` (optional) must
  /// outlive the reconfigurator and parallelises table construction;
  /// outcomes are identical at any thread count.
  explicit Reconfigurator(const topo::Topology& topo,
                          util::ThreadPool* pool = nullptr)
      : topo_(&topo), pool_(pool) {}

  const topo::Topology& topology() const noexcept { return *topo_; }

  /// Attaches a span recorder: a full rebuild emits partition, then
  /// subtopo / tree / classify / repair / release / verify per component,
  /// then merge (the rules), table_build and verify stage spans.  nullptr
  /// (the default) detaches; the pointer must stay valid across rebuild
  /// calls and is shared with them unsynchronised, so set it before
  /// rebuilds start.
  void setSpans(util::SpanRecorder* spans) noexcept { spans_ = spans; }

  /// Rebuilds routing over the subgraph restricted to nodes with
  /// nodeAlive[v] != 0 and links with linkAlive[l] != 0 (a dead endpoint
  /// implies a dead link regardless of linkAlive).  Deterministic: uses the
  /// paper's M1 tree policy, no RNG.
  ReconfigOutcome rebuild(std::span<const std::uint8_t> linkAlive,
                          std::span<const std::uint8_t> nodeAlive) const;

  /// Incremental epoch from `anchor`: keeps its turn rule and recomputes
  /// only the destinations whose minimal-path structure a channel dead now
  /// but alive in the anchor can touch (RoutingTable::rebuildDead).  The
  /// table is identical to a masked RoutingTable::build of the anchor's
  /// rule.  Restricting an acyclic channel-dependency graph to fewer
  /// channels cannot create a cycle, and the outcome's check runs on the
  /// alive channels only, so a full rebuild's arbitrary directions on its
  /// dead channels raise no false cycle.  Returns nullopt, having built at
  /// most the dirty blocks, when a channel revived relative to the anchor
  /// or when the outcome fails its checks: a cycle on alive channels, or a
  /// within-component pair the anchor's rule leaves unreachable that
  /// re-rooting could serve (e.g. the failure cut off the old tree root's
  /// region).
  std::optional<ReconfigOutcome> tryIncremental(
      const routing::RoutingTable& anchor,
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  /// tryIncremental(prevTable, ...), else rebuild(); the outcome's
  /// `incremental` reports which path ran.
  ReconfigOutcome rebuildIncremental(
      const routing::RoutingTable& prevTable,
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  /// Fraction (0, 1] of per-destination construction work an incremental
  /// epoch from `anchor` would redo given the masks; 1.0 when a channel
  /// revived relative to it.  The engine uses this to size the
  /// reconfiguration window at fault time, before the rebuild itself runs.
  double incrementalDirtyFraction(const routing::RoutingTable& anchor,
                                  std::span<const std::uint8_t> linkAlive,
                                  std::span<const std::uint8_t> nodeAlive) const;

 private:
  std::vector<std::uint64_t> channelAliveWords(
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  const topo::Topology* topo_;
  util::ThreadPool* pool_ = nullptr;
  util::SpanRecorder* spans_ = nullptr;
};

}  // namespace downup::fault
