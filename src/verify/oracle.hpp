// Independent deadlock-freedom oracle.
//
// The constructive pipeline already checks its own work: verifyRouting()
// runs an iterative three-color DFS over the channel-dependency graph
// (routing/cdg.cpp) and trusts the routing table's own distance field for
// connectivity.  This oracle re-derives both verdicts through a different
// algorithm and a different formulation so that a bug in the constructive
// path and a bug in its checker are unlikely to coincide.
//
// Condition.  Mendlovic & Matias (2025, PAPERS.md) characterise
// deadlock-free routing through an escape property: a configuration can
// wedge iff there is a non-empty set S of channels in which every channel's
// permitted continuations all lead back into S — no member of S can ever
// drain.  For a fixed routing relation this is the greatest fixed point of
// the "keep channels with a non-drainable successor" operator, and the
// routing is deadlock-free iff that fixed point is empty.  We compute it by
// Kahn-style peeling: repeatedly remove channels whose out-degree in the
// dependency graph (restricted to not-yet-removed channels) is zero — such
// a channel can always drain.  The residual set after peeling converges is
// exactly the greatest fixed point; on a finite graph it is empty iff the
// graph is acyclic, so the verdict provably agrees with Dally & Seitz
// acyclicity while sharing no code or traversal order with the DFS.
//
// The oracle audits three independent layers, each optional beyond the
// first:
//   1. Rule check — peel the permission CDG restricted to alive channels.
//      Residual non-empty => the published turn rule itself can wedge.
//   2. State check — peel the occupancy graph of a running network: hold
//      edges (worm occupies channel A and extends onto channel B) plus
//      request edges (blocked header on A waiting for a fully-owned
//      channel B).  This is what the mid-reconfiguration quarantine state
//      is audited with: survivors routed under the *old* rule coexist with
//      the frozen fabric, and a residual here is an actual wedged worm set
//      regardless of what any rule says.  Note the state check deliberately
//      does NOT union old-epoch hold edges with new-rule permission edges:
//      a fully-routed survivor drains unconditionally, so that union would
//      manufacture false cycles.
//   3. Table check — one pass per destination d over d's steps row.  The
//      deep variant checks the row against the rule's fixed point: every
//      alive channel into d holds 1; every other alive channel holds 1
//      plus the minimum over its allowed alive successors (layer 1's rule
//      graph), or kNoPath when none is finite; every dead channel holds
//      kNoPath.  With unit weights this fixed point is unique, so the
//      check is complete.  A finite value reaches a channel into d by
//      stepping through successors whose value is one lower: that chain
//      is a legal path, so the value is at least the true distance.
//      Induction on the true distance shows it is at most the true
//      distance: a channel at distance 1 enters d and holds 1, and one at
//      distance t > 1 has a successor at distance t - 1, which holds at
//      most t - 1.  A channel with no legal path therefore holds kNoPath.  The check shares no code with the table's
//      reverse BFS.  The same pass then checks d's rows against the
//      verified row: the first-hop rows and distance(), the legal rows
//      (rule successors one step closer) and the any-turn rows (every
//      alive output one step closer but the U-turn; the simulator's
//      allocator reads them).  Each check costs O(edges) per destination.
//      It replaced a re-walk of all n^2 pairs through the accessors plus a
//      forward BFS from every source: in perfbench's traced construct_2048
//      run (2048 switches, seed 1, one thread on a shared 4-core x86
//      container) the deep audit fell from 1.84 s to 0.74 s.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "routing/routing_table.hpp"

namespace downup::verify {

using routing::ChannelId;
using routing::NodeId;

/// One directed occupancy edge between channels (holds and requests share
/// the shape; the oracle treats both as "from cannot drain before to").
struct OccupancyEdge {
  ChannelId from = 0;
  ChannelId to = 0;
};

struct OracleInput {
  /// The turn rule to audit (required).
  const routing::TurnPermissions* perms = nullptr;
  /// Optional channel liveness, one byte per channel (empty = all alive).
  /// Dead channels are excluded from every layer.
  std::span<const std::uint8_t> channelAlive = {};
  /// Optional occupancy overlay for the state check: hold edges are
  /// committed worm extensions, request edges point at fully-owned targets.
  std::span<const OccupancyEdge> holdEdges = {};
  std::span<const OccupancyEdge> requestEdges = {};
  /// Optional routing table for the table check.  Must have been built
  /// against a rule equivalent to `perms` on the same topology.
  const routing::RoutingTable* table = nullptr;
  /// Also check every steps row against the rule's fixed point, which
  /// makes the table check complete (only meaningful when `table` is set;
  /// OracleGate sets it on every audit with a table).
  bool deepDistanceCheck = false;
};

struct OracleReport {
  // Layer 1: rule check.
  bool ruleDeadlockFree = false;
  std::uint32_t aliveChannels = 0;
  std::uint64_t ruleEdges = 0;
  /// Channels never peeled — the greatest fixed point.  0 iff deadlock-free.
  std::uint32_t ruleResidual = 0;
  /// A witness cycle inside the residual core (empty when deadlock-free):
  /// c0 -> c1 -> ... -> c0, first element not repeated.
  std::vector<ChannelId> ruleCycle;

  // Layer 2: state check (trivially true when no occupancy edges given).
  bool stateDrains = true;
  std::uint32_t stateResidual = 0;
  std::vector<ChannelId> stateCycle;
  /// Hold edges the current rule would not permit — worms committed under
  /// an older epoch's rule.  Informational: such worms still drain.
  std::uint64_t crossEpochHolds = 0;

  // Layer 3: table check (trivially true when no table given).
  bool tableConsistent = true;
  /// Candidate rows (first-hop, legal, any-turn) and distance() values
  /// that disagree with the steps row they derive from.
  std::uint64_t candidateViolations = 0;
  /// (destination, channel) pairs whose steps value breaks the rule's
  /// fixed point (deep check only).
  std::uint64_t distanceMismatches = 0;

  bool ok() const noexcept {
    return ruleDeadlockFree && stateDrains && tableConsistent;
  }
  /// One-line human summary ("ok" or the failing layers).
  std::string describe() const;
};

/// Runs every layer the input enables.  Pure: no RNG, no global state, no
/// mutation of the audited structures.
OracleReport runOracle(const OracleInput& input);

}  // namespace downup::verify
