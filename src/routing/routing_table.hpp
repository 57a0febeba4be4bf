// Turn-restricted shortest-path routing tables.
//
// Because legality of a hop depends on the direction of the channel a packet
// arrived on, shortest paths are computed on the *channel graph*: vertices
// are channels, and channel c may be followed by channel c' when
// dst(c) == src(c') and the turn (dir(c) -> dir(c')) is allowed at that
// node.  For every destination d we run one reverse BFS over that graph,
// yielding steps(d, c) = minimal number of channels on an allowed path that
// starts by traversing c and ends at d.
//
// The adaptive routing relation the simulator consumes falls out directly:
// at node v (arrived via `in`, heading to d) every allowed output channel o
// with steps(d, o) == steps(d, in) - 1 lies on a globally minimal legal
// path, and all such channels are candidates (Section 5 of the paper routes
// on "the shortest possible paths", choosing among them at random).
//
// Route computation is throughput-critical for the simulator, so build()
// additionally materialises the candidate relation as three successor
// indexes (first hop per (dst, node); legal and any-turn continuations per
// (dst, in-channel)).  The simulator's allocation fast path iterates those
// via spans — no per-header scratch vectors, no candidate recomputation.
//
// Storage is one immutable block per destination: its steps row, its three
// candidate indexes as one block-local CSR, and a reachability summary.
// Tables hold blocks through shared pointers, so an incremental epoch
// (rebuildDead) allocates blocks only for the destinations it recomputes
// and shares every clean block with the epoch it came from; the table's
// own alive-channel mask hides the channels that died since a shared block
// was built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "routing/turns.hpp"
#include "util/span_recorder.hpp"

namespace downup::util {
class ThreadPool;
}  // namespace downup::util

namespace downup::routing {

inline constexpr std::uint16_t kNoPath = 0xffff;

/// Number of destination blocks below which RoutingTable::build/rebuildDead
/// build them serially even when handed a multi-thread pool (rebuildDead
/// counts only its dirty destinations): per-destination work at these
/// sizes is smaller than the pool's dispatch overhead (bench_build's
/// tblSer/tblPar columns: the parallel path lost ~20% up through a few
/// hundred switches on a 1-core container).  Cutover changes scheduling
/// only; outputs stay bit-for-bit identical either way.
inline constexpr std::uint32_t kParallelBuildMinDestinations = 256;

class RoutingTable {
 public:
  /// Builds the table; O(destinations x channels x avg-degree) work.
  ///
  /// Each destination's block — its reverse BFS, then its candidate rows
  /// enumerated while the steps row is still in cache — depends on nothing
  /// but the permissions and the mask, so blocks fan out over `pool`
  /// (nullptr, a single-thread pool, or fewer than
  /// kParallelBuildMinDestinations destinations run serially) and the
  /// output is bit-for-bit identical at any thread count.
  ///
  /// `channelAlive` (optional, one bit per channel, empty = all alive)
  /// masks dead channels out of the table: they seed no BFS, relax no
  /// predecessor, keep kNoPath steps everywhere, and appear in no candidate
  /// row, so a running simulator can consume a masked table directly.  A
  /// full reconfiguration (fault/reconfigure.hpp) builds its host table
  /// this way; pairs the mask disconnects stay unreachable.
  ///
  /// `spans` (optional) records a `table_build` span with `bfs` (the block
  /// construction) and `candidate_fill` (installing the blocks) children
  /// annotated with destination/thread counts; nullptr (the default) takes
  /// a branch-per-stage and nothing else.
  static RoutingTable build(const TurnPermissions& perms,
                            util::ThreadPool* pool = nullptr,
                            std::span<const std::uint64_t> channelAlive = {},
                            util::SpanRecorder* spans = nullptr);

  /// Incremental rebuild after channel deaths: produces a table with
  /// contents identical to build(prev.permissions(), pool, channelAlive)
  /// while building fresh blocks only for *dirty* destinations — those
  /// where some newly dead channel participates in a candidate row (it
  /// starts a minimal path from its source node, or some other channel's
  /// minimal continuation set contains it).  Clean destinations provably
  /// keep every step value and candidate row (the dead channels were on
  /// none of their minimal paths), so their blocks are shared with prev;
  /// the new table's mask pins dead channels to kNoPath and empties the
  /// rows keyed by them.  Cost: the dirty-set scan, the dirty blocks and
  /// O(destinations) pointer copies.
  ///
  /// Returns nullopt when `channelAlive` revives a channel dead in prev
  /// (the incremental path only removes channels; a revival needs a full
  /// build).  If `dirtyDestinations` is non-null it receives the dirty set
  /// (ascending).
  static std::optional<RoutingTable> rebuildDead(
      const RoutingTable& prev, util::ThreadPool* pool,
      std::span<const std::uint64_t> channelAlive,
      std::vector<NodeId>* dirtyDestinations = nullptr,
      util::SpanRecorder* spans = nullptr);

  /// Number of destinations rebuildDead(*this, ..., channelAlive) would
  /// recompute, or nodeCount() when a channel revived relative to this
  /// table (the incremental path does not apply).  Cheap — O(dead channels
  /// x nodes x degree) — so the engine can size the reconfiguration window
  /// before running the rebuild itself.
  std::uint32_t dirtyDestinationCount(
      std::span<const std::uint64_t> channelAlive) const;

  /// Points the table at an identical permission set (same topology, same
  /// turn rule).  Used when an epoch swap copies the permissions it was
  /// built against; `perms` must outlive the table.
  void rebindPermissions(const TurnPermissions& perms) noexcept {
    perms_ = &perms;
  }

  const TurnPermissions& permissions() const noexcept { return *perms_; }
  const Topology& topology() const noexcept { return perms_->topology(); }

  /// Whether channel c is alive in this table: the mask it was built or
  /// rebuilt with.
  bool channelAlive(ChannelId c) const noexcept {
    return (alive_[c >> 6] >> (c & 63)) & 1u;
  }

  /// Channels on a minimal legal path to dst whose first hop is c
  /// (kNoPath if dst is unreachable through c).
  std::uint16_t channelSteps(NodeId dst, ChannelId c) const noexcept {
    if (masked_ && !channelAlive(c)) [[unlikely]] return kNoPath;
    return blockSteps(dst)[c];
  }

  /// Minimal legal hop count from src to dst; kNoPath if unreachable,
  /// 0 when src == dst.
  std::uint16_t distance(NodeId src, NodeId dst) const noexcept;

  // --- allocation-free candidate queries (the simulator's fast path) ---

  /// Every output channel of src that starts a minimal legal path to dst
  /// (injection: no input-channel constraint), in outputChannels(src) order.
  /// Needs no mask test: a channel that died after dst's block was built
  /// is in none of its first-hop rows, or the block would be dirty.
  std::span<const ChannelId> firstChannels(NodeId src, NodeId dst) const noexcept {
    return blockRow(dst, src);
  }

  /// Every output channel at v == dst(in) that continues a minimal legal
  /// path to dst, honouring the turn constraint against `in`, in
  /// outputChannels(v) order.
  std::span<const ChannelId> nextChannels(ChannelId in, NodeId dst) const noexcept {
    if (masked_ && !channelAlive(in)) [[unlikely]] return {};
    return blockRow(dst, nodeCount_ + in);
  }

  /// Like nextChannels but ignoring the turn rule (U-turns still excluded):
  /// every output whose legal-steps potential is exactly one less than
  /// `in`'s.  This is the adaptive-class candidate set of the
  /// escape-channel routing scheme (sim/config.hpp): because steps(d, c) is
  /// defined over *legal* continuations, a turn-legal escape successor
  /// always exists from any channel this relation can reach.
  std::span<const ChannelId> nextChannelsAnyTurn(ChannelId in,
                                                 NodeId dst) const noexcept {
    if (masked_ && !channelAlive(in)) [[unlikely]] return {};
    return blockRow(dst, nodeCount_ + channelCount_ + in);
  }

  // --- appending variants (batch/analysis callers) ---

  void firstChannels(NodeId src, NodeId dst, std::vector<ChannelId>& out) const;
  void nextChannels(ChannelId in, NodeId dst, std::vector<ChannelId>& out) const;
  void nextChannelsAnyTurn(ChannelId in, NodeId dst,
                           std::vector<ChannelId>& out) const;

  /// True when the two tables hold identical routing contents (steps and
  /// all three candidate indexes as the accessors see them; the
  /// permissions pointer and the block sharing are not compared).
  /// Used by the determinism and incremental-equivalence tests.
  bool identicalTo(const RoutingTable& other) const noexcept;

  /// FNV-1a hash over the full table contents: the steps, then each
  /// candidate index as one global CSR over (dst, key) rows — its
  /// cumulative offsets, then its entries.  Stable across thread counts,
  /// build paths and block sharing; golden-pinned in tests.
  std::uint64_t fingerprint() const noexcept;

  /// Ordered pairs (src != dst) joined by a legal path, and the sum of
  /// their legal hop counts.  O(destinations): each block carries its own.
  struct Reachability {
    std::uint64_t pairs = 0;
    std::uint64_t distanceSum = 0;
  };
  Reachability reachability() const noexcept;

  /// True when distance(s, d) is finite for every ordered pair.
  bool allPairsConnected() const noexcept;

  /// Mean legal hop count over ordered pairs (src != dst); unreachable
  /// pairs are skipped (and counted by verify()).
  double averagePathLength() const;

 private:
  /// One destination's rows, immutable once built, in a single allocation
  /// that epochs share:
  ///   Summary | u16 steps[channelCount_] (padded to 4 bytes) |
  ///   u32 offsets[indexRows_ + 1] | u32 entries[]
  /// with one block-local CSR whose rows are the first-hop rows (key:
  /// source node), then the legal continuation rows (key: nodeCount_ +
  /// in-channel), then the any-turn ones (key: nodeCount_ + channelCount_ +
  /// in-channel).  Every view sits at an offset fixed by the table's shape,
  /// so a lookup is one pointer load from blocks_ away from its row.  The
  /// uint64 elements only size and align the storage (and share its
  /// allocation with the reference count); Scratch::finish creates the
  /// summary and the arrays in it, and the views reach them via launder.
  using Block = std::shared_ptr<const std::uint64_t[]>;
  struct Summary {
    std::uint64_t distanceSum = 0;       // legal hop counts of the sources
    std::uint32_t reachableSources = 0;  // sources != dst with a legal path
  };
  static constexpr std::size_t kStepsAt = sizeof(Summary);
  static constexpr std::size_t offsetsAt(std::uint32_t channels) noexcept {
    return kStepsAt + (std::size_t{channels} * 2 + 3) / 4 * 4;
  }
  struct Scratch;

  template <class T>
  const T* blockView(NodeId dst, std::size_t at) const noexcept {
    return std::launder(reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(blocks_[dst].get()) + at));
  }
  const Summary& blockSummary(NodeId dst) const noexcept {
    return *blockView<Summary>(dst, 0);
  }
  const std::uint16_t* blockSteps(NodeId dst) const noexcept {
    return blockView<std::uint16_t>(dst, kStepsAt);
  }
  std::span<const ChannelId> blockRow(NodeId dst, std::size_t key) const noexcept {
    const auto* offsets = blockView<std::uint32_t>(dst, offsetsAt_);
    return {offsets + indexRows_ + 1 + offsets[key],
            offsets[key + 1] - offsets[key]};
  }

  RoutingTable(const TurnPermissions& perms,
               std::span<const std::uint64_t> channelAlive);
  static Block buildBlock(const TurnPermissions& perms, NodeId dst,
                          std::span<const std::uint64_t> channelAlive,
                          Scratch& scratch);
  void installBlocks(std::span<const NodeId> fresh, const RoutingTable* prev,
                     std::span<const std::uint64_t> channelAlive,
                     util::ThreadPool* pool, util::ScopedSpan& buildSpan,
                     util::SpanRecorder* spans);
  bool computeDeadDelta(std::span<const std::uint64_t> channelAlive,
                        std::vector<ChannelId>& newlyDead,
                        std::vector<NodeId>& dirty) const;

  const TurnPermissions* perms_ = nullptr;
  std::uint32_t channelCount_ = 0;
  std::uint32_t nodeCount_ = 0;
  std::uint32_t indexRows_ = 0;  // nodeCount_ + 2 * channelCount_
  std::size_t offsetsAt_ = 0;    // offsetsAt(channelCount_)
  std::vector<Block> blocks_;    // [dst]; epochs share clean blocks
  std::vector<std::uint64_t> alive_;  // one bit per channel
  /// Some shared block predates a death in alive_ (an incremental epoch),
  /// so channelSteps and the continuation rows must apply the mask.  A
  /// full build's blocks already hold kNoPath and empty rows for dead
  /// channels, which keeps the test a predictable branch on healthy tables.
  bool masked_ = false;
};

}  // namespace downup::routing
