#include "routing/routing_table.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <numeric>

#include "routing/audit.hpp"
#include "util/thread_pool.hpp"

namespace downup::routing {

namespace {

inline bool aliveBit(std::span<const std::uint64_t> mask, ChannelId c) noexcept {
  return mask.empty() || ((mask[c >> 6] >> (c & 63)) & 1u);
}

/// `mask` as exactly one bit per channel (empty: every channel alive).
std::vector<std::uint64_t> aliveWords(std::span<const std::uint64_t> mask,
                                      std::uint32_t channels) {
  std::vector<std::uint64_t> words((channels + 63) / 64, 0);
  for (ChannelId c = 0; c < channels; ++c) {
    if (aliveBit(mask, c)) words[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  return words;
}

/// Dynamic serial/parallel cutover: a null return routes every parallelFor
/// below through the serial path.  A few blocks build faster than they fan
/// out (kParallelBuildMinDestinations); the choice never affects output.
inline util::ThreadPool* effectivePool(util::ThreadPool* pool,
                                       std::size_t destinations) noexcept {
  if (pool == nullptr || pool->threadCount() <= 1 ||
      destinations < kParallelBuildMinDestinations) {
    return nullptr;
  }
  return pool;
}

}  // namespace

/// Staging for one block: the steps row and the candidate rows are written
/// here, then copied into an exactly-sized block.  The any-turn rows are
/// staged apart because they are enumerated in the same channel pass as
/// the legal rows but follow all of them in the block.
struct RoutingTable::Scratch {
  std::vector<std::uint16_t> steps;
  std::vector<ChannelId> queue;
  std::vector<std::uint32_t> offsets;  // first-hop rows, then legal rows
  std::vector<ChannelId> entries;
  std::vector<std::uint32_t> anyOffsets;
  std::vector<ChannelId> anyEntries;
  std::uint32_t reachableSources = 0;
  std::uint64_t distanceSum = 0;

  void begin(std::uint32_t channels) {
    steps.assign(channels, kNoPath);
    offsets.assign(1, 0);
    entries.clear();
    anyOffsets.assign(1, 0);
    anyEntries.clear();
    reachableSources = 0;
    distanceSum = 0;
  }
  void endRow() { offsets.push_back(static_cast<std::uint32_t>(entries.size())); }
  void endAnyRow() {
    anyOffsets.push_back(static_cast<std::uint32_t>(anyEntries.size()));
  }

  Block finish() {
    const std::size_t at = offsetsAt(static_cast<std::uint32_t>(steps.size()));
    const std::size_t words = offsets.size() + anyOffsets.size() - 1 +
                              entries.size() + anyEntries.size();
    const std::size_t bytes = at + words * sizeof(std::uint32_t);
    auto storage = std::make_shared_for_overwrite<std::uint64_t[]>(
        (bytes + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t));
    std::byte* raw = reinterpret_cast<std::byte*>(storage.get());
    ::new (raw) Summary{distanceSum, reachableSources};
    std::uninitialized_copy(steps.begin(), steps.end(),
                            reinterpret_cast<std::uint16_t*>(raw + kStepsAt));
    // The any-turn rows' offsets continue after every legal row's entries.
    for (std::uint32_t& o : anyOffsets) o += offsets.back();
    auto* out = std::uninitialized_copy(
        offsets.begin(), offsets.end(),
        reinterpret_cast<std::uint32_t*>(raw + at));
    out = std::uninitialized_copy(anyOffsets.begin() + 1, anyOffsets.end(), out);
    out = std::uninitialized_copy(entries.begin(), entries.end(), out);
    std::uninitialized_copy(anyEntries.begin(), anyEntries.end(), out);
    return storage;
  }
};

RoutingTable::RoutingTable(const TurnPermissions& perms,
                           std::span<const std::uint64_t> channelAlive)
    : perms_(&perms),
      channelCount_(perms.topology().channelCount()),
      nodeCount_(perms.topology().nodeCount()),
      indexRows_(nodeCount_ + 2 * channelCount_),
      offsetsAt_(offsetsAt(channelCount_)),
      alive_(aliveWords(channelAlive, channelCount_)) {}

RoutingTable::Block RoutingTable::buildBlock(
    const TurnPermissions& perms, NodeId dst,
    std::span<const std::uint64_t> channelAlive, Scratch& scratch) {
  const Topology& topo = perms.topology();
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();
  scratch.begin(channels);
  std::uint16_t* steps = scratch.steps.data();
  std::vector<ChannelId>& queue = scratch.queue;

  // Reverse BFS over the channel graph.  Seeds are the input channels of
  // dst (reverses of its outputs); the final distances do not depend on
  // intra-layer queue order, so any seed enumeration order yields the same
  // steps row.
  queue.clear();
  for (ChannelId out : topo.outputChannels(dst)) {
    const ChannelId c = Topology::reverseChannel(out);
    if (!aliveBit(channelAlive, c)) continue;
    steps[c] = 1;
    queue.push_back(c);
  }
  // Reverse adjacency is implicit: the predecessors of channel c are the
  // input channels of src(c) whose turn onto c is allowed.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ChannelId c = queue[head];
    const NodeId via = topo.channelSrc(c);
    const std::uint16_t nextSteps = static_cast<std::uint16_t>(steps[c] + 1);
    for (ChannelId out : topo.outputChannels(via)) {
      const ChannelId in = Topology::reverseChannel(out);
      if (steps[in] != kNoPath) continue;
      if (!aliveBit(channelAlive, in)) continue;
      if (!perms.allowed(via, in, c)) continue;
      steps[in] = nextSteps;
      queue.push_back(in);
    }
  }

  // Candidate rows, in the exact order the simulator depends on (adjacency
  // order within each row; the simulator's random pick indexes into these
  // rows, so reordering would change RNG-driven routing decisions).
  for (NodeId src = 0; src < n; ++src) {
    if (src != dst) {
      std::uint16_t best = kNoPath;
      for (ChannelId c : topo.outputChannels(src)) {
        best = std::min(best, steps[c]);
      }
      if (best != kNoPath) {
        ++scratch.reachableSources;
        scratch.distanceSum += best;
        for (ChannelId c : topo.outputChannels(src)) {
          if (steps[c] == best) scratch.entries.push_back(c);
        }
      }
    }
    scratch.endRow();
  }
  for (ChannelId in = 0; in < channels; ++in) {
    const std::uint16_t remaining = steps[in];
    if (remaining != kNoPath && remaining > 1) {  // <=1: dst(in) == dst
      const NodeId via = topo.channelDst(in);
      for (ChannelId next : topo.outputChannels(via)) {
        if (steps[next] != remaining - 1) continue;
        if (perms.allowed(via, in, next)) scratch.entries.push_back(next);
        if (next != Topology::reverseChannel(in)) {
          scratch.anyEntries.push_back(next);
        }
      }
    }
    scratch.endRow();
    scratch.endAnyRow();
  }
  return scratch.finish();
}

void RoutingTable::installBlocks(std::span<const NodeId> fresh,
                                 const RoutingTable* prev,
                                 std::span<const std::uint64_t> channelAlive,
                                 util::ThreadPool* pool,
                                 util::ScopedSpan& buildSpan,
                                 util::SpanRecorder* spans) {
  pool = effectivePool(pool, fresh.size());
  buildSpan.arg("threads", pool != nullptr ? pool->threadCount() : 1);
  buildSpan.arg("parallel", pool != nullptr ? 1 : 0);

  // Blocks are independent, so they fan out directly; each lands in its
  // own slot.  Scratch is per OS thread and keeps its capacity, so repeated
  // builds on warm threads allocate only the blocks themselves.
  std::vector<Block> built(fresh.size());
  {
    util::ScopedSpan bfsSpan(spans, "bfs");
    bfsSpan.arg("destinations", fresh.size());
    util::parallelFor(pool, fresh.size(), [&](std::size_t i) {
      thread_local Scratch scratch;
      built[i] = buildBlock(*perms_, fresh[i], channelAlive, scratch);
    });
  }
  util::ScopedSpan fillSpan(spans, "candidate_fill");
  if (prev != nullptr) {
    blocks_ = prev->blocks_;
  } else {
    blocks_.resize(nodeCount_);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    blocks_[fresh[i]] = std::move(built[i]);
  }
}

RoutingTable RoutingTable::build(const TurnPermissions& perms,
                                 util::ThreadPool* pool,
                                 std::span<const std::uint64_t> channelAlive,
                                 util::SpanRecorder* spans) {
  RoutingTable table(perms, channelAlive);
  util::ScopedSpan buildSpan(spans, "table_build");
  buildSpan.arg("destinations", table.nodeCount_);
  std::vector<NodeId> all(table.nodeCount_);
  std::iota(all.begin(), all.end(), NodeId{0});
  table.installBlocks(all, nullptr, channelAlive, pool, buildSpan, spans);
  invokeTableAuditHook(perms, table, channelAlive);
  return table;
}

bool RoutingTable::computeDeadDelta(std::span<const std::uint64_t> channelAlive,
                                    std::vector<ChannelId>& newlyDead,
                                    std::vector<NodeId>& dirty) const {
  const Topology& topo = perms_->topology();
  newlyDead.clear();
  dirty.clear();
  const std::vector<std::uint64_t> alive = aliveWords(channelAlive, channelCount_);
  for (std::size_t w = 0; w < alive_.size(); ++w) {
    const std::uint64_t was = alive_[w];
    const std::uint64_t now = alive[w];
    if ((now & ~was) != 0) return false;  // revival: full build needed
    for (std::uint64_t died = was & ~now; died != 0; died &= died - 1) {
      newlyDead.push_back(
          static_cast<ChannelId>(w * 64 + std::countr_zero(died)));
    }
  }

  // Destination d is dirty iff some newly dead channel c participates in a
  // candidate row of d: it starts a minimal path from src(c) (its steps
  // match the best over src(c)'s outputs), or it continues some in-channel
  // e of src(c) (steps(d, e) == steps(d, c) + 1, e != reverse(c) — the
  // any-turn membership test, a superset of the turn-legal one).  Every
  // minimal-path edge of the table appears in one of those rows, so for a
  // clean destination no minimal path from any channel crosses c, and no
  // step value or candidate row besides c's own entries can change.
  for (NodeId d = 0; d < nodeCount_; ++d) {
    for (const ChannelId c : newlyDead) {
      const std::uint16_t stepsC = channelSteps(d, c);
      if (stepsC == kNoPath) continue;
      const NodeId src = topo.channelSrc(c);
      bool hit = false;
      if (src != d) {
        std::uint16_t best = kNoPath;
        for (ChannelId o : topo.outputChannels(src)) {
          best = std::min(best, channelSteps(d, o));
        }
        hit = stepsC == best;
      }
      if (!hit) {
        for (ChannelId o : topo.outputChannels(src)) {
          if (o == c) continue;  // reverse(o) == reverse(c): the U-turn pair
          if (channelSteps(d, Topology::reverseChannel(o)) == stepsC + 1) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        dirty.push_back(d);
        break;
      }
    }
  }
  return true;
}

std::uint32_t RoutingTable::dirtyDestinationCount(
    std::span<const std::uint64_t> channelAlive) const {
  std::vector<ChannelId> newlyDead;
  std::vector<NodeId> dirty;
  if (!computeDeadDelta(channelAlive, newlyDead, dirty)) return nodeCount_;
  return static_cast<std::uint32_t>(dirty.size());
}

std::optional<RoutingTable> RoutingTable::rebuildDead(
    const RoutingTable& prev, util::ThreadPool* pool,
    std::span<const std::uint64_t> channelAlive,
    std::vector<NodeId>* dirtyDestinations, util::SpanRecorder* spans) {
  util::ScopedSpan buildSpan(spans, "table_build");
  buildSpan.arg("destinations", prev.nodeCount_);
  buildSpan.arg("incremental", 1);

  std::vector<ChannelId> newlyDead;
  std::vector<NodeId> dirty;
  {
    util::ScopedSpan deltaSpan(spans, "dirty_delta");
    if (!prev.computeDeadDelta(channelAlive, newlyDead, dirty)) {
      deltaSpan.arg("revived", 1);
      return std::nullopt;
    }
    deltaSpan.arg("dirty", dirty.size());
    deltaSpan.arg("deadChannels", newlyDead.size());
  }
  if (dirtyDestinations != nullptr) *dirtyDestinations = dirty;

  // Clean blocks are shared as they are: the dead channels appear in none
  // of their rows, and the new mask hides the dead channels' own steps and
  // the rows keyed by them.  The mask only ever loses channels along an
  // incremental chain (a revival takes the full build), so a block shared
  // across several epochs stays correct under each later mask.
  RoutingTable table(*prev.perms_, channelAlive);
  table.masked_ = prev.masked_ || !newlyDead.empty();
  table.installBlocks(dirty, &prev, channelAlive, pool, buildSpan, spans);
  invokeTableAuditHook(*table.perms_, table, channelAlive);
  return table;
}

bool RoutingTable::identicalTo(const RoutingTable& other) const noexcept {
  if (nodeCount_ != other.nodeCount_ || channelCount_ != other.channelCount_) {
    return false;
  }
  const auto sameRow = [](std::span<const ChannelId> a,
                          std::span<const ChannelId> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (NodeId d = 0; d < nodeCount_; ++d) {
    for (NodeId src = 0; src < nodeCount_; ++src) {
      if (!sameRow(firstChannels(src, d), other.firstChannels(src, d))) {
        return false;
      }
    }
    for (ChannelId c = 0; c < channelCount_; ++c) {
      if (channelSteps(d, c) != other.channelSteps(d, c) ||
          !sameRow(nextChannels(c, d), other.nextChannels(c, d)) ||
          !sameRow(nextChannelsAnyTurn(c, d), other.nextChannelsAnyTurn(c, d))) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t RoutingTable::fingerprint() const noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  mix(nodeCount_);
  mix(channelCount_);
  for (NodeId d = 0; d < nodeCount_; ++d) {
    for (ChannelId c = 0; c < channelCount_; ++c) mix(channelSteps(d, c));
  }
  // Each index hashes as the global CSR it once was: rows ordered by
  // (dst, key), cumulative offsets from 0, then every entry.
  const auto mixIndex = [&](std::uint32_t keys, auto rowOf) {
    std::uint32_t offset = 0;
    mix(offset);
    for (NodeId d = 0; d < nodeCount_; ++d) {
      for (std::uint32_t k = 0; k < keys; ++k) {
        offset += static_cast<std::uint32_t>(rowOf(k, d).size());
        mix(offset);
      }
    }
    for (NodeId d = 0; d < nodeCount_; ++d) {
      for (std::uint32_t k = 0; k < keys; ++k) {
        for (const ChannelId e : rowOf(k, d)) mix(e);
      }
    }
  };
  mixIndex(nodeCount_,
           [this](NodeId src, NodeId d) { return firstChannels(src, d); });
  mixIndex(channelCount_,
           [this](ChannelId in, NodeId d) { return nextChannels(in, d); });
  mixIndex(channelCount_, [this](ChannelId in, NodeId d) {
    return nextChannelsAnyTurn(in, d);
  });
  return hash;
}

RoutingTable RoutingTable::remapComponents(
    const TurnPermissions& hostPerms, std::span<const ComponentMapping> parts) {
  const Topology& topo = hostPerms.topology();
  const NodeId n = topo.nodeCount();
  const std::uint32_t channels = topo.channelCount();
  std::vector<std::uint64_t> mapped((channels + 63) / 64, 0);
  for (const ComponentMapping& part : parts) {
    for (const ChannelId c : part.channelToHost) {
      mapped[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  RoutingTable host(hostPerms, mapped);

  // Destinations outside every component (dead or isolated switches) are
  // reached from nowhere and have no rows: they all share one empty block.
  Scratch scratch;
  scratch.begin(channels);
  for (std::uint32_t row = 0; row < n + channels; ++row) scratch.endRow();
  for (ChannelId in = 0; in < channels; ++in) scratch.endAnyRow();
  host.blocks_.assign(n, scratch.finish());

  // Each component destination's host block translates its sub block row
  // by row.  Entry order within a row is preserved: sub node ids ascend
  // with host ids (ComponentMapping contract), so a sub adjacency scan
  // visits neighbors in the same relative order a host scan would.
  std::vector<NodeId> nodeToSub(n, topo::kInvalidNode);
  std::vector<ChannelId> channelToSub(channels, topo::kInvalidChannel);
  for (const ComponentMapping& part : parts) {
    const RoutingTable& sub = *part.table;
    for (NodeId v = 0; v < part.nodeToHost.size(); ++v) {
      nodeToSub[part.nodeToHost[v]] = v;
    }
    for (ChannelId c = 0; c < part.channelToHost.size(); ++c) {
      channelToSub[part.channelToHost[c]] = c;
    }
    const auto translate = [&part](std::span<const ChannelId> row,
                                   std::vector<ChannelId>& out) {
      for (const ChannelId c : row) out.push_back(part.channelToHost[c]);
    };
    for (NodeId subDst = 0; subDst < sub.nodeCount_; ++subDst) {
      scratch.begin(channels);
      for (ChannelId c = 0; c < sub.channelCount_; ++c) {
        scratch.steps[part.channelToHost[c]] = sub.channelSteps(subDst, c);
      }
      for (NodeId src = 0; src < n; ++src) {
        if (nodeToSub[src] != topo::kInvalidNode) {
          translate(sub.firstChannels(nodeToSub[src], subDst), scratch.entries);
        }
        scratch.endRow();
      }
      for (ChannelId in = 0; in < channels; ++in) {
        const ChannelId subIn = channelToSub[in];
        if (subIn != topo::kInvalidChannel) {
          translate(sub.nextChannels(subIn, subDst), scratch.entries);
          translate(sub.nextChannelsAnyTurn(subIn, subDst), scratch.anyEntries);
        }
        scratch.endRow();
        scratch.endAnyRow();
      }
      // Pairs in different components are unreachable, so the component
      // summary is the host summary.
      const Summary& from = sub.blockSummary(subDst);
      scratch.reachableSources = from.reachableSources;
      scratch.distanceSum = from.distanceSum;
      host.blocks_[part.nodeToHost[subDst]] = scratch.finish();
    }
    for (const NodeId v : part.nodeToHost) nodeToSub[v] = topo::kInvalidNode;
    for (const ChannelId c : part.channelToHost) {
      channelToSub[c] = topo::kInvalidChannel;
    }
  }
  return host;
}

std::uint16_t RoutingTable::distance(NodeId src, NodeId dst) const noexcept {
  if (src == dst) return 0;
  // Every first hop starts a minimal path, so any one gives the distance.
  const auto first = firstChannels(src, dst);
  return first.empty() ? kNoPath : channelSteps(dst, first.front());
}

void RoutingTable::firstChannels(NodeId src, NodeId dst,
                                 std::vector<ChannelId>& out) const {
  const auto row = firstChannels(src, dst);
  out.insert(out.end(), row.begin(), row.end());
}

void RoutingTable::nextChannels(ChannelId in, NodeId dst,
                                std::vector<ChannelId>& out) const {
  const auto row = nextChannels(in, dst);
  out.insert(out.end(), row.begin(), row.end());
}

void RoutingTable::nextChannelsAnyTurn(ChannelId in, NodeId dst,
                                       std::vector<ChannelId>& out) const {
  const auto row = nextChannelsAnyTurn(in, dst);
  out.insert(out.end(), row.begin(), row.end());
}

RoutingTable::Reachability RoutingTable::reachability() const noexcept {
  Reachability total;
  for (NodeId d = 0; d < nodeCount_; ++d) {
    total.pairs += blockSummary(d).reachableSources;
    total.distanceSum += blockSummary(d).distanceSum;
  }
  return total;
}

bool RoutingTable::allPairsConnected() const noexcept {
  return reachability().pairs ==
         static_cast<std::uint64_t>(nodeCount_) * (nodeCount_ - 1);
}

double RoutingTable::averagePathLength() const {
  const Reachability total = reachability();
  return total.pairs == 0 ? 0.0
                          : static_cast<double>(total.distanceSum) /
                                static_cast<double>(total.pairs);
}

}  // namespace downup::routing
