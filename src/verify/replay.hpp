// Replayable oracle witness cases.
//
// When the gate catches a violation it serialises everything the oracle
// needs to reproduce the verdict offline — topology, channel directions,
// the global turn set with per-node releases/blocks, the alive mask, the
// occupancy overlay and the witness cycles — as one strict JSONL file
// (schema `oracle_case/1`, parsed with util/jsonl.hpp; see DESIGN.md §15
// and results/README.md for the record layout).  examples/oracle_replay.cpp
// reloads a case and re-runs the oracle on the reconstructed state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "verify/oracle.hpp"

namespace downup::verify {

/// Context the gate attaches to a dumped case (where in the system the
/// audited snapshot came from).
struct CaseContext {
  std::string point;  // "baseline", "epoch_publish", "mid_reconfig_preswap", ...
  std::uint64_t cycle = 0;
  std::uint64_t epoch = 0;
  /// Optional WaitForSampler witness observed around the violation.
  std::vector<ChannelId> waitForWitness;
};

/// Serialises `input` + `report` (+ context) as oracle_case/1 JSONL.
void writeReplayCase(std::ostream& out, const OracleInput& input,
                     const OracleReport& report, const CaseContext& context);

/// A fully reconstructed case: the topology and permissions are owned here
/// and `input` points into them (no table — the table layer is not
/// serialised; rule and state layers reproduce the verdict).
struct ReplayCase {
  CaseContext context;
  bool expectedRuleDeadlockFree = true;
  bool expectedStateDrains = true;
  std::vector<ChannelId> recordedRuleCycle;
  std::vector<ChannelId> recordedStateCycle;

  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<routing::TurnPermissions> perms;
  std::vector<std::uint8_t> channelAlive;
  std::vector<OccupancyEdge> holdEdges;
  std::vector<OccupancyEdge> requestEdges;

  /// The reconstructed oracle input (borrows the members above).
  OracleInput input() const;
};

/// Parses an oracle_case/1 stream.  Throws std::runtime_error with a
/// `source:line` diagnostic on any malformed, truncated or out-of-range
/// record (same strictness contract as topo::load).
ReplayCase loadReplayCase(std::istream& in, std::string_view source);

}  // namespace downup::verify
