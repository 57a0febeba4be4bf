// Closed-loop fault churn against a service-mode FabricManager with an
// OracleGate attached: one driver thread posts each fault event (one or
// several link transitions back to back) and spins on acquire() until an
// epoch that absorbed the whole event is current; one reader thread does
// lookups on pinned snapshots throughout.  Shared by the fabric_churn_256
// workload (many rounds) and the traced runs of the other workloads (one
// short round on their own fabric).
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One fault event: every link in `links` changes to `alive`, posted back
/// to back inside one coalescing window.
struct FaultEvent {
  std::vector<topo::LinkId> links;
  bool alive = false;
};

/// A sequence of events that starts and ends with every link alive, so the
/// last epoch of a round is a full rebuild of the healthy fabric.
using Round = std::vector<FaultEvent>;

/// Seeded rounds of about `events` events each: single failures and bursts
/// of two to four, never more than `maxDown` links down at once, every
/// failure chosen so the fabric stays connected.
std::vector<Round> makeRounds(const topo::Topology& topo, std::uint64_t seed,
                              unsigned rounds, unsigned events,
                              unsigned maxDown);

struct EventRecord {
  bool linkDown = false;
  bool visible = false;     // an absorbing epoch was pinned before timeout
  std::uint64_t postNs = 0;     // first post of the event
  std::uint64_t visibleNs = 0;  // first reader pin of the absorbing epoch
  std::uint64_t epoch = 0;

  double visibleMs() const {
    return static_cast<double>(visibleNs - postNs) / 1e6;
  }
};

/// What one round did; span data only when traced.
struct RoundOutcome {
  std::vector<EventRecord> events;
  bool allPublishedOk = false;
  std::uint64_t oracleViolations = 0;
  std::uint64_t posted = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuildsIncremental = 0;
  std::uint64_t audits = 0;
  std::uint64_t finalFingerprint = 0;
  std::uint64_t lookups = 0;
  double readerSeconds = 0.0;
  // Traced rounds only.
  std::vector<util::SpanRecorder::Span> spans;
  double acquireP99Ns = 0.0;
  std::uint64_t retireDepthMax = 0;
};

/// Seconds the driver waits for an event to become visible before it
/// counts the event as failed.
inline constexpr double kVisibleTimeoutSeconds = 10.0;

/// Runs one round on a fresh manager serving `baseline` (the healthy
/// table).  `traced` attaches the manager's span recorder and service
/// metrics; the oracle gate is always attached.
RoundOutcome runRound(const topo::Topology& topo,
                      const routing::RoutingTable& baseline,
                      const Round& round, bool traced,
                      std::uint64_t readerSeed);

/// Per-layer accumulation over traced rounds.
class ChurnLayers {
 public:
  void add(const RoundOutcome& round);
  /// Reports every fabric/fault/verify layer metric plus the tail latency.
  void report(Result& result) const;
  /// Share of fault-to-visible time the spans tile.
  double coverage() const {
    return windowNs_ == 0 ? 0.0
                          : static_cast<double>(coveredNs_) /
                                static_cast<double>(windowNs_);
  }

 private:
  std::vector<double> visibleMs_;
  std::vector<double> coalesceMs_;
  std::vector<double> fullMs_;
  std::vector<double> incrMs_;
  std::vector<double> auditMs_;
  std::vector<double> publishMs_;
  std::vector<double> lagMs_;
  std::vector<double> acquireP99Ns_;
  std::uint64_t linkDownEvents_ = 0;
  std::uint64_t incrementalEpochs_ = 0;
  std::uint64_t audits_ = 0;
  std::uint64_t publishes_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t lookups_ = 0;
  double readerSeconds_ = 0.0;
  std::uint64_t retireDepthMax_ = 0;
  std::uint64_t coveredNs_ = 0;
  std::uint64_t windowNs_ = 0;
};

/// The fault-to-visible path on another workload's fabric: runs `round` once
/// traced, counts its events as operations and reports the fabric, fault and
/// verify layer metrics.
void reportChurnRound(Result& result, const topo::Topology& topo,
                      const routing::RoutingTable& baseline, const Round& round,
                      std::uint64_t readerSeed);

}  // namespace perfbench
