// Transfer phase: switch arbitration, flit moves and the credit return.
//
// Level 1 nominates one flit per input port (physical channel or source
// queue); level 2 grants one flit per output resource (physical channel or
// ejection port) among the nominations, round-robin in both levels.  Only
// channels with at least one forwardable flit (activeChannels_, maintained
// by allocation and flow control) and sources with a claimed output VC
// (busySources_) are visited; both sets iterate in ascending id order,
// which is exactly the order the historical 0..N-1 scans nominated in, so
// per-resource request lists — and therefore round-robin winners — are
// unchanged.
//
// With one VC per link, each output VC and each ejection port has exactly
// one feeder (the upstream VC or source of the packet that claimed it), so
// every nomination wins level 2 and executes as soon as it is made — in
// the order the grouped path executes its winners.  In both paths the
// credits of the moved VCs return only after the last nomination, so no
// feeder sends into a buffer slot freed in the same cycle.
#include "sim/network.hpp"

namespace downup::sim {

void WormholeNetwork::transferFlits() {
  freedSlots_.clear();
  if (vcCount_ == 1) {
    // activeChannels_ membership already means the channel's VC is owned,
    // routed and non-empty; only downstream credit can gate the flit.
    activeChannels_.forEach([this](ChannelId c) {
      const std::uint32_t out = vcs_[c].out;
      if (!isEject(out) && credit_[out] == 0) return;
      executeMove(false, c);
    });
    busySources_.forEach([this](topo::NodeId node) {
      if (credit_[sources_[node].out] == 0) return;  // sources never eject
      executeMove(true, node);
    });
  } else {
    transferGrouped();
  }
  for (std::uint32_t vcId : freedSlots_) ++credit_[vcId];
}

void WormholeNetwork::transferGrouped() {
  // Level 1: one flit per input physical channel per cycle (round-robin
  // among that channel's VCs); each source queue is its own input port.
  proposedMoves_.clear();
  const std::uint32_t channels = topo_->channelCount();
  activeChannels_.forEach([this](ChannelId c) {
    const std::uint32_t rr = inputRoundRobin_[c];
    for (std::uint32_t k = 0; k < vcCount_; ++k) {
      const std::uint32_t v = (rr + k) % vcCount_;
      const std::uint32_t vcId = c * vcCount_ + v;
      const Vc& vc = vcs_[vcId];
      if (vc.owner == kNoPacket || vc.out == kNoOut || vc.buffered == 0) continue;
      if (!isEject(vc.out) && credit_[vc.out] == 0) continue;
      proposedMoves_.push_back(Move{false, vcId, vc.out});
      inputRoundRobin_[c] = v + 1;
      break;
    }
  });
  busySources_.forEach([this](topo::NodeId node) {
    const Source& source = sources_[node];
    if (credit_[source.out] == 0) return;  // sources never eject
    proposedMoves_.push_back(Move{true, node, source.out});
  });

  // Level 2: one flit per output resource (physical channel or ejection
  // port) per cycle, round-robin among requesters.
  touchedResources_.clear();
  for (const Move& move : proposedMoves_) {
    const std::uint32_t resource = isEject(move.out)
                                       ? channels + (move.out - ejectBase_)
                                       : vcChannel(move.out);
    if (resourceRequests_[resource].empty()) {
      touchedResources_.push_back(resource);
    }
    resourceRequests_[resource].push_back(move);
  }
  for (std::uint32_t resource : touchedResources_) {
    auto& requests = resourceRequests_[resource];
    const std::uint32_t pick =
        outputRoundRobin_[resource]++ % static_cast<std::uint32_t>(requests.size());
    const Move& winner = requests[pick];
    executeMove(winner.fromSource, winner.index);
    requests.clear();
  }
}

}  // namespace downup::sim
