// FabricManager: routing as a long-lived service instead of a simulator
// subroutine.
//
// The manager owns the epoch-swap publication machinery (fabric/epoch.hpp),
// the fault-transition queue (fabric/event_queue.hpp) and a Reconfigurator,
// and serves an immutable routing-table snapshot to any number of reader
// threads while rebuilds happen off to the side.  It runs in one of two
// writer modes (never both):
//
//  * Driven mode — the deterministic simulator path.  The engine thread
//    calls publishFromMasks() with FaultController's alive masks as the
//    authoritative rebuild input; the manager rebuilds (full, or
//    incremental from an anchor) and ALWAYS publishes.  The queue is
//    drained only for coalescing statistics.
//
//  * Service mode — the fabric-controller shape.  startService() launches a
//    background rebuild thread that parks on the event queue, sleeps one
//    coalescing window after the first transition of a burst, drains
//    everything that accumulated, and folds the batch into desired alive
//    masks.  A DOWN and UP of the same link inside the window leave desired
//    == applied and the rebuild is skipped entirely (flap cancelled); N
//    failures fold into ONE rebuild over the union dirty set.  Publishes go
//    through the same epoch swap the readers pin against.
//
// Both modes build an incremental epoch from one of two anchors, tried in
// order: the healthy baseline the manager is constructed with, and a copy
// of the newest full-rebuild epoch's rule and table (sharing that epoch's
// blocks; every full rebuild replaces it).  An anchor is skipped, with
// nothing built, when the masks revive a channel dead in it or kill a
// channel its rule classifies as a tree channel (a DOWN/UP direction) — a
// tree link's loss is what the inherited rule cannot serve.  Otherwise
// Reconfigurator::tryIncremental builds the epoch, and a failed check
// moves on to the next anchor; when neither serves, the publish is a full
// rebuild.  Every incremental epoch is therefore its anchor's acyclic rule
// restricted to a subset of the channels it was verified on, and its table
// is identical to a masked full build of that rule.  A return to the
// healthy masks republishes the baseline's blocks.
//
// Reader threads call makeReader() once and acquire()/release pins around
// lookups; the read path is the lock-free protocol documented in
// fabric/epoch.hpp.  tryReclaim() runs on the writer after each publish
// (and opportunistically), so retired epochs disappear as soon as the last
// pinned reader moves on.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "fabric/epoch.hpp"
#include "fabric/event_queue.hpp"
#include "fault/event_sink.hpp"
#include "fault/reconfigure.hpp"
#include "obs/flight_recorder.hpp"

namespace downup::verify {
class OracleGate;
}

namespace downup::fabric {

/// The tables an incremental epoch is built from, in the order tried.
enum class Anchor : std::uint8_t {
  kHealthy,     // the baseline the manager was constructed with
  kNewestFull,  // the newest full-rebuild epoch
};
inline constexpr std::size_t kAnchors = 2;

/// What one writer-side publish attempt did (scalars only; the table itself
/// is reachable through acquire()).
struct PublishResult {
  std::uint64_t epoch = 0;    // epoch now current (unchanged when skipped)
  bool published = false;     // false = coalescing cancelled the rebuild
  bool incremental = false;   // rebuild kept an anchor's turn rule...
  Anchor parent = Anchor::kHealthy;  // ...this one's (when incremental)
  std::uint32_t rebuiltDestinations = 0;
  std::uint64_t unreachablePairs = 0;
  unsigned components = 0;
  bool ok = false;            // deadlock-free + components connected
  std::uint64_t transitionsAbsorbed = 0;  // queue events folded into this call
};

class FabricManager final : public fault::FaultEventSink {
 public:
  struct Options {
    std::size_t maxReaders = 64;
    /// Optional pool for parallel table construction (outcomes identical
    /// at any width).  Must outlive the manager.
    util::ThreadPool* pool = nullptr;
    /// Service mode: how long the rebuild thread waits after a burst's
    /// first transition before draining and rebuilding.
    std::uint64_t coalesceWindowMicros = 200;
    /// Optional span recorder: every publish decision emits a `rebuild`
    /// root span with coalesce/dequeue/construction/publish children and
    /// the anchor args (see obs/span.hpp for the tree).  Must outlive the
    /// manager; nullptr (the default) costs one branch per stage.
    util::SpanRecorder* spans = nullptr;
    /// Optional service metrics (fabric/metrics.hpp): pin-acquire latency,
    /// snapshot lifetimes, retire-list depth, the coalescing ledger.  Must
    /// outlive the manager; attach before readers start.
    FabricMetrics* metrics = nullptr;
    /// Flight-recorder ring capacity (entries; rounded up to a power of
    /// two).  The recorder itself is always on — see flightRecorder().
    std::size_t flightCapacity = 1024;
    /// Optional independent deadlock oracle (verify/gate.hpp).  When set,
    /// the manager audits every epoch exactly once, at "epoch_publish"
    /// just before it goes live — from BOTH writer modes, since driven and
    /// service publishes share rebuildAndPublish().  A violation records a
    /// kOracleViolation anomaly and bumps oracleViolations() but never
    /// blocks the publish: enforcement stays with the caller so driven-mode
    /// determinism holds.  Must outlive the manager.
    verify::OracleGate* oracle = nullptr;
  };

  /// `topo` and `baseline` (the healthy epoch-0 table, and the healthy
  /// anchor of every incremental epoch) must outlive the manager.
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline, Options options);
  FabricManager(const topo::Topology& topo,
                const routing::RoutingTable& baseline)
      : FabricManager(topo, baseline, Options{}) {}
  ~FabricManager() override;

  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  // --- reader side ---
  Reader makeReader() { return publisher_.makeReader(); }
  PinnedSnapshot acquire(Reader& reader) { return publisher_.acquire(reader); }
  std::uint64_t currentEpoch() const noexcept {
    return publisher_.currentEpoch();
  }
  /// True while a rebuild is between drain and publish — readers can use
  /// this to classify lookups that overlap a reconfiguration.
  bool rebuildActive() const noexcept {
    return rebuildActive_.load(std::memory_order_acquire);
  }

  /// The always-on bounded ring of recent control-plane events (transition
  /// posted, window opened, rebuild started/finished, publish, reclaim,
  /// anomaly).  Dump it on demand or after an anomaly; recording from any
  /// thread is lock-free and allocation-free.
  obs::FlightRecorder& flightRecorder() noexcept { return flight_; }
  const obs::FlightRecorder& flightRecorder() const noexcept {
    return flight_;
  }

  /// The attached metrics, or nullptr when none were configured.
  FabricMetrics* metrics() const noexcept { return options_.metrics; }

  // --- fault ingestion (any thread; lock-free) ---
  void onLinkStateChanged(std::uint64_t cycle, topo::LinkId link,
                          bool alive) override;
  void onNodeStateChanged(std::uint64_t cycle, topo::NodeId node,
                          bool alive) override;

  // --- driven mode (single writer thread; no service running) ---

  /// Rebuilds from the given authoritative alive masks and publishes the
  /// next epoch unconditionally.  `incremental` builds the epoch from the
  /// first anchor that serves the masks (see the class comment); false
  /// always takes the full rebuild.  Drains the transition queue for
  /// coalescing stats only — the masks are the rebuild input.
  PublishResult publishFromMasks(std::span<const std::uint8_t> linkAlive,
                                 std::span<const std::uint8_t> nodeAlive,
                                 bool incremental);

  /// Fraction of per-destination routing work an incremental publish under
  /// these masks would redo, from the anchor it would try first (1.0 when
  /// the masks rule out both anchors).  Writer thread only.
  double incrementalDirtyFraction(
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;

  /// Frees retired epochs no reader still pins (writer thread only).
  std::size_t tryReclaim() { return publisher_.tryReclaim(); }
  std::size_t retiredCount() const noexcept {
    return publisher_.retiredCount();
  }
  std::uint64_t reclaimedCount() const noexcept {
    return publisher_.reclaimedCount();
  }

  // --- service mode ---

  /// Launches the background rebuild thread.  No other writer may call
  /// publishFromMasks() while the service runs.
  void startService();
  /// Flushes any pending transitions (one final drain-and-rebuild if they
  /// change the desired masks) and joins the thread.  Idempotent.
  void stopService();
  bool serviceRunning() const noexcept { return serviceThread_.joinable(); }

  // --- statistics (atomics; readable from any thread) ---
  std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t rebuildsIncremental() const noexcept {
    return rebuildsIncremental_.load(std::memory_order_relaxed);
  }
  /// Service-mode drains whose folded batch left the applied masks
  /// unchanged (e.g. a DOWN+UP flap inside one window) — no rebuild ran.
  std::uint64_t rebuildsSkipped() const noexcept {
    return rebuildsSkipped_.load(std::memory_order_relaxed);
  }
  /// Total fault transitions absorbed by rebuild/skip decisions.  Minus
  /// one per rebuild, this is how many events coalescing saved.
  std::uint64_t transitionsAbsorbed() const noexcept {
    return transitionsAbsorbed_.load(std::memory_order_relaxed);
  }
  /// Largest transition batch folded into a single decision.
  std::uint64_t largestBatch() const noexcept {
    return largestBatch_.load(std::memory_order_relaxed);
  }
  /// False once any published epoch failed verification.
  bool allPublishedOk() const noexcept {
    return allOk_.load(std::memory_order_relaxed);
  }
  /// Epoch publishes the oracle rejected (0 when no oracle is attached).
  std::uint64_t oracleViolations() const noexcept {
    return oracleViolations_.load(std::memory_order_relaxed);
  }

 private:
  /// Folds `batch` into desiredLink_/desiredNode_; true when the desired
  /// masks now differ from the applied ones.
  bool foldBatch(std::span<const FaultTransition> batch);
  /// Drains the event queue into batch_ (an `event_dequeue` span), folds it
  /// and counts it in transitionsAbsorbed_ / largestBatch_; returns
  /// foldBatch's verdict.
  bool drainBatch();
  using AnchorMisses = std::array<AnchorMiss, kAnchors>;

  /// Rebuilds from the masks and publishes (both modes).  `batchSize` is
  /// the transition count folded into this decision (flight-recorder
  /// annotation only); `rebuildSpan` is the decision's root span, which
  /// gets the anchor args.
  PublishResult rebuildAndPublish(std::span<const std::uint8_t> linkAlive,
                                  std::span<const std::uint8_t> nodeAlive,
                                  bool incremental, std::uint64_t batchSize,
                                  util::ScopedSpan& rebuildSpan);
  /// The first anchor from `first` on that the per-channel alive mask does
  /// not rule out, without building anything; records in `misses` why each
  /// anchor it passes over cannot serve.  nullopt when none is left.
  std::optional<Anchor> pickParent(std::span<const std::uint8_t> channelAlive,
                                   std::size_t first,
                                   AnchorMisses& misses) const;
  /// The anchor's table; nullptr for the newest-full anchor before the
  /// first full rebuild.
  const routing::RoutingTable* anchorTable(Anchor anchor) const noexcept;
  /// One byte per channel: alive when its link and both endpoints are.
  std::vector<std::uint8_t> channelAliveMask(
      std::span<const std::uint8_t> linkAlive,
      std::span<const std::uint8_t> nodeAlive) const;
  void serviceLoop();

  const topo::Topology* topo_;
  const routing::RoutingTable* healthy_;
  fault::Reconfigurator reconfigurator_;
  EpochPublisher publisher_;
  FabricEventQueue queue_;
  Options options_;
  obs::FlightRecorder flight_;

  // Service-thread state (touched only by the service thread / driven
  // writer): desired = folded queue view, applied = masks of the current
  // epoch's rebuild input.
  std::vector<std::uint8_t> desiredLink_;
  std::vector<std::uint8_t> desiredNode_;
  std::vector<std::uint8_t> appliedLink_;
  std::vector<std::uint8_t> appliedNode_;
  std::vector<FaultTransition> batch_;  // drain scratch
  // The newest-full anchor (writer only): a copy of the newest full
  // rebuild's rule, and of its table rebound to that copy.
  std::unique_ptr<routing::TurnPermissions> fullPerms_;
  std::unique_ptr<routing::RoutingTable> fullTable_;

  std::thread serviceThread_;
  std::atomic<bool> serviceStop_{false};
  std::atomic<bool> rebuildActive_{false};

  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> rebuildsIncremental_{0};
  std::atomic<std::uint64_t> rebuildsSkipped_{0};
  std::atomic<std::uint64_t> transitionsAbsorbed_{0};
  std::atomic<std::uint64_t> largestBatch_{0};
  std::atomic<bool> allOk_{true};
  std::atomic<std::uint64_t> oracleViolations_{0};
};

}  // namespace downup::fabric
