#include "churn.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>

#include "fabric/manager.hpp"
#include "fault/reconfigure.hpp"
#include "probes.hpp"
#include "tree/coordinated_tree.hpp"
#include "verify/gate.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// True when `table` serves every link of `event` in its posted state: a
/// live link's channel reaches its own far end in one step, a dead one's
/// channel has no path at all.
bool absorbed(const routing::RoutingTable& table, const FaultEvent& event) {
  const topo::Topology& topo = table.topology();
  for (const topo::LinkId link : event.links) {
    const topo::ChannelId c = 2 * link;
    const bool alive = table.channelSteps(topo.channelDst(c), c) == 1;
    if (alive != event.alive) return false;
  }
  return true;
}

}  // namespace

std::vector<Round> makeRounds(const topo::Topology& topo, std::uint64_t seed,
                              unsigned rounds, unsigned events,
                              unsigned maxDown) {
  util::Rng rng(seed);
  std::vector<Round> out;
  for (unsigned r = 0; r < rounds; ++r) {
    Round round;
    std::vector<std::uint8_t> alive(topo.linkCount(), 1);
    std::vector<topo::LinkId> down;
    // Every round opens with one cross-link failure, the case the
    // incremental path is built for.
    const topo::LinkId first = pickCrossLinks(topo, rng(), 1).front();
    alive[first] = 0;
    down.push_back(first);
    round.push_back({{first}, false});
    while (round.size() < events) {
      const bool fail =
          down.empty() || (down.size() < maxDown && rng.chance(0.5));
      const unsigned burst =
          rng.chance(0.3) ? 2 + static_cast<unsigned>(rng.below(3)) : 1;
      FaultEvent event;
      event.alive = !fail;
      if (fail) {
        for (unsigned tries = 0;
             event.links.size() < burst && down.size() < maxDown &&
             tries < 64;
             ++tries) {
          const auto link =
              static_cast<topo::LinkId>(rng.below(topo.linkCount()));
          if (alive[link] == 0) continue;
          alive[link] = 0;
          if (!connected(topo, alive)) {
            alive[link] = 1;
            continue;
          }
          down.push_back(link);
          event.links.push_back(link);
        }
      } else {
        while (event.links.size() < burst && !down.empty()) {
          const std::size_t pick = rng.below(down.size());
          event.links.push_back(down[pick]);
          alive[down[pick]] = 1;
          down.erase(down.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      if (!event.links.empty()) round.push_back(std::move(event));
    }
    if (!down.empty()) round.push_back({down, true});
    out.push_back(std::move(round));
  }
  return out;
}

RoundOutcome runRound(const topo::Topology& topo,
                      const routing::RoutingTable& baseline,
                      const Round& round, bool traced,
                      std::uint64_t readerSeed) {
  RoundOutcome out;
  util::SpanRecorder spans;  // also the round's clock
  fabric::FabricMetrics metrics;
  verify::OracleGate gate;
  fabric::FabricManager::Options options;
  options.oracle = &gate;
  if (traced) {
    options.spans = &spans;
    options.metrics = &metrics;
  }
  fabric::FabricManager fm(topo, baseline, options);
  fabric::Reader driverReader = fm.makeReader();
  fabric::Reader lookupReader = fm.makeReader();

  std::size_t transitions = 0;
  for (const FaultEvent& event : round) transitions += event.links.size();
  // At most one publish per transition, so epochs stay below this bound.
  std::vector<std::uint64_t> readerFirstPin(transitions + 2, kNever);

  fm.startService();
  // Joined on every path: the destructor requests stop and joins.
  std::jthread reader([&](std::stop_token stop) {
    constexpr std::uint32_t kBatch = 256;
    const topo::NodeId nodes = topo.nodeCount();
    util::Rng rng(readerSeed);
    std::uint64_t last = kNever;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    while (!stop.stop_requested()) {
      fabric::PinnedSnapshot pin = fm.acquire(lookupReader);
      const std::uint64_t epoch = pin.epoch();
      if (epoch != last) {
        last = epoch;
        if (epoch < readerFirstPin.size() && readerFirstPin[epoch] == kNever) {
          readerFirstPin[epoch] = spans.nowNs();
        }
      }
      const routing::RoutingTable& table = pin.table();
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        const auto src = static_cast<topo::NodeId>(rng.below(nodes));
        auto dst = static_cast<topo::NodeId>(rng.below(nodes));
        if (dst == src) dst = (dst + 1) % nodes;
        sink += table.firstChannels(src, dst).size() + table.distance(src, dst);
      }
      out.lookups += kBatch;
    }
    out.readerSeconds = secondsSince(t0);
    if (sink == 42) std::fprintf(stderr, " ");  // keeps the lookups live
  });

  const auto timeoutNs =
      static_cast<std::uint64_t>(kVisibleTimeoutSeconds * 1e9);
  std::uint64_t cycle = 1;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const FaultEvent& event = round[i];
    EventRecord record;
    record.linkDown = !event.alive;
    {
      util::ScopedSpan postSpan(traced ? &spans : nullptr, "post");
      postSpan.arg("event", static_cast<double>(i));
      record.postNs = spans.nowNs();
      for (const topo::LinkId link : event.links) {
        fm.onLinkStateChanged(cycle++, link, event.alive);
      }
    }
    out.posted += event.links.size();
    std::uint64_t seen = kNever;
    for (;;) {
      fabric::PinnedSnapshot pin = fm.acquire(driverReader);
      const std::uint64_t now = spans.nowNs();
      if (pin.epoch() != seen) {
        seen = pin.epoch();
        if (absorbed(pin.table(), event)) {
          record.visible = true;
          record.epoch = seen;
          record.visibleNs = now;
          break;
        }
      }
      if (now - record.postNs > timeoutNs) break;
    }
    out.events.push_back(record);
  }
  reader.request_stop();
  reader.join();
  fm.stopService();

  for (EventRecord& record : out.events) {
    if (record.visible && record.epoch < readerFirstPin.size()) {
      record.visibleNs = std::min(record.visibleNs, readerFirstPin[record.epoch]);
    }
  }
  {
    fabric::PinnedSnapshot pin = fm.acquire(driverReader);
    out.finalFingerprint = pin.table().fingerprint();
  }
  out.allPublishedOk = fm.allPublishedOk();
  out.oracleViolations = gate.violations();
  out.absorbed = fm.transitionsAbsorbed();
  out.rebuilds = fm.rebuilds();
  out.rebuildsIncremental = fm.rebuildsIncremental();
  out.audits = gate.audits();
  if (traced) {
    out.spans = spans.snapshot();
    out.acquireP99Ns = metrics.acquireNs.snapshot().p99Ns;
    out.retireDepthMax = metrics.retireDepthMax.load(std::memory_order_relaxed);
  }
  return out;
}

void ChurnLayers::add(const RoundOutcome& round) {
  using Span = util::SpanRecorder::Span;
  const std::vector<Span>& spans = round.spans;
  // Direct children of every service-side `rebuild` root.
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != util::SpanRecorder::kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  struct Rebuild {
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t publishStartNs = 0;
  };
  std::vector<Rebuild> rebuilds;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& root = spans[i];
    if (root.parent != util::SpanRecorder::kNoParent ||
        std::string_view(root.name) != "rebuild") {
      continue;
    }
    std::uint64_t childNs = 0;
    std::uint64_t constructionNs = 0;
    std::uint64_t publishStartNs = 0;
    bool full = false;
    bool published = false;
    for (const std::size_t c : children[i]) {
      const Span& child = spans[c];
      const std::string_view name = child.name;
      childNs += child.durationNs();
      if (name == "coalesce_wait") {
        coalesceMs_.push_back(ms(child.durationNs()));
      } else if (name == "publish") {
        publishMs_.push_back(ms(child.durationNs()));
        publishStartNs = child.startNs;
        published = true;
      } else if (name != "event_dequeue") {
        constructionNs += child.durationNs();
        if (name == "merge") full = true;
      }
    }
    if (!published) continue;  // a cancelled flap: nothing rebuilt
    (full ? fullMs_ : incrMs_).push_back(ms(constructionNs));
    // Root self time: the two oracle audits plus alive-mask bookkeeping.
    auditMs_.push_back(ms(root.durationNs() - childNs));
    rebuilds.push_back({root.startNs, root.endNs, publishStartNs});
  }

  for (const EventRecord& event : round.events) {
    if (event.linkDown) ++linkDownEvents_;
    if (!event.visible) continue;
    visibleMs_.push_back(event.visibleMs());
    // Tiling: the driver's post span plus every rebuild that started inside
    // the event's window, clipped to it.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const Span& span : spans) {
      if (std::string_view(span.name) == "post" && span.startNs <= event.postNs &&
          span.endNs >= event.postNs) {
        covered.emplace_back(span.startNs, span.endNs);
      }
    }
    std::uint64_t lastPublishNs = 0;
    for (const Rebuild& r : rebuilds) {
      if (r.startNs < event.postNs || r.startNs > event.visibleNs) continue;
      covered.emplace_back(r.startNs, std::min(r.endNs, event.visibleNs));
      lastPublishNs = std::max(lastPublishNs, r.publishStartNs);
    }
    if (lastPublishNs != 0 && event.visibleNs >= lastPublishNs) {
      lagMs_.push_back(ms(event.visibleNs - lastPublishNs));
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t cursor = event.postNs;
    for (auto [lo, hi] : covered) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, event.visibleNs);
      if (hi > lo) {
        coveredNs_ += hi - lo;
        cursor = hi;
      }
    }
    windowNs_ += event.visibleNs - event.postNs;
  }
  incrementalEpochs_ += round.rebuildsIncremental;
  audits_ += round.audits;
  publishes_ += round.rebuilds;
  transitions_ += round.absorbed;
  lookups_ += round.lookups;
  readerSeconds_ += round.readerSeconds;
  acquireP99Ns_.push_back(round.acquireP99Ns);
  retireDepthMax_ = std::max(retireDepthMax_, round.retireDepthMax);
}

void ChurnLayers::report(Result& result) const {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  result.layer("fabric.fault_to_visible_p90_ms", quantile(visibleMs_, 0.9), "ms");
  result.layer("fabric.coalesce_wait_ms", median(coalesceMs_), "ms");
  result.layer("fault.rebuild_full_ms", median(fullMs_), "ms");
  result.layer("fault.rebuild_incr_ms", median(incrMs_), "ms");
  result.layer("verify.audit_ms", median(auditMs_), "ms");
  result.layer("fabric.publish_ms", median(publishMs_), "ms");
  result.layer("fabric.visible_lag_ms", median(lagMs_), "ms");
  result.layer("fault.incremental_hit_ratio",
               ratio(static_cast<double>(incrementalEpochs_),
                     static_cast<double>(linkDownEvents_)),
               "ratio");
  result.layer("verify.audits_per_publish",
               ratio(static_cast<double>(audits_),
                     static_cast<double>(publishes_)),
               "ratio");
  result.layer("fabric.transitions_per_rebuild",
               ratio(static_cast<double>(transitions_),
                     static_cast<double>(publishes_)),
               "ratio");
  result.layer("fabric.lookups_per_s",
               ratio(static_cast<double>(lookups_), readerSeconds_), "1/s");
  result.layer("fabric.acquire_p99_ns", median(acquireP99Ns_), "ns");
  result.layer("fabric.retire_depth_max",
               static_cast<double>(retireDepthMax_), "count");
  char line[200];
  std::snprintf(line, sizeof line,
                "traced churn: %zu visible events, %zu full and %zu "
                "incremental rebuilds, %llu audits, span coverage %.2f%%",
                visibleMs_.size(), fullMs_.size(), incrMs_.size(),
                static_cast<unsigned long long>(audits_), 100.0 * coverage());
  result.note(line);
}

void reportChurnRound(Result& result, const topo::Topology& topo,
                      const routing::RoutingTable& baseline, const Round& round,
                      std::uint64_t readerSeed) {
  const RoundOutcome outcome = runRound(topo, baseline, round, true, readerSeed);
  for (const EventRecord& event : outcome.events) {
    result.operation(event.visible && outcome.allPublishedOk);
  }
  result.check(outcome.allPublishedOk && outcome.oracleViolations == 0 &&
                   outcome.absorbed == outcome.posted,
               "traced round: verified epochs, no oracle violation, every "
               "transition absorbed");
  ChurnLayers layers;
  layers.add(outcome);
  layers.report(result);
}

// --- the fabric_churn_256 workload ---

namespace {

constexpr topo::NodeId kChurnSwitches = 256;
constexpr unsigned kChurnPorts = 4;
constexpr unsigned kEventsPerRound = 50;
constexpr unsigned kMaxDown = 6;
constexpr unsigned kRoundsGenerated = 40;
constexpr unsigned kMinRounds = 2;  // >= 100 events
// Rounds are served on kFabrics fabrics in turn, the seed's own first, and
// every construction pass runs on all of them, so the metrics pool several
// fabrics' worth of events and builds.
constexpr unsigned kFabrics = 4;
constexpr int kPassesPerRound = 4;
constexpr std::uint64_t kPinnedSeed = 1;
constexpr std::uint64_t kPinnedFinalFingerprint = 0x1606392f68528f08ULL;

struct ChurnFabric {
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<routing::Routing> baseline;
  std::vector<Round> rounds;
  BuildInput build;
};

std::vector<ChurnFabric> makeChurnInputs(std::uint64_t seed) {
  std::vector<ChurnFabric> fabrics;
  for (unsigned f = 0; f < kFabrics; ++f) {
    const std::uint64_t fabricSeed = seed + 1000 * f;
    ChurnFabric fabric;
    fabric.topo = std::make_unique<topo::Topology>(
        makeFabric(kChurnSwitches, kChurnPorts, fabricSeed));
    const topo::Topology& topo = *fabric.topo;
    util::Rng treeRng(fabricSeed + 1);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
    fabric.baseline =
        std::make_unique<routing::Routing>(core::buildDownUp(topo, ct));
    fabric.rounds = makeRounds(topo, fabricSeed + 2,
                               kRoundsGenerated / kFabrics, kEventsPerRound,
                               kMaxDown);
    fabric.build = {&topo, tree::TreePolicy::kM1SmallestFirst, fabricSeed + 1,
                    pickCrossLinks(topo, fabricSeed + 3, 4)};
    fabrics.push_back(std::move(fabric));
  }
  return fabrics;
}

}  // namespace

void runFabricChurn256(const Options& options, Result& result) {
  const auto setup = [&] { return makeChurnInputs(options.seed); };
  std::vector<double> setupSeconds;
  const std::vector<ChurnFabric> fabrics = timedSetup(setupSeconds, setup);
  result.note("fabric_churn_256: 256 switches, 4 ports; " +
              std::to_string(kFabrics) +
              " fabrics served in turn, one per round; threads: 1 service, "
              "1 driver, 1 reader; table builds serial; closed loop, one "
              "event outstanding; construction passes between rounds");

  std::vector<BuildInput> builds;
  for (const ChurnFabric& fabric : fabrics) builds.push_back(fabric.build);
  PassRecorder passes;
  std::vector<double> visibleMs, tracedVisibleMs, downMs, upMs;
  std::vector<RoundOutcome> outcomes;
  std::vector<unsigned> outcomeFabric;
  ChurnLayers layers;
  bool buildsOk = true;
  const auto start = Clock::now();
  for (std::size_t r = 0;
       r < kRoundsGenerated &&
       (r < kMinRounds || secondsSince(start) < options.seconds);
       ++r) {
    if (r > 0) timedSetup(setupSeconds, setup);
    // Construction passes before every round, with no manager running, so
    // their samples spread over the run like the events do.  The traced
    // run alternates untraced and traced passes.
    for (int i = 0; i < kPassesPerRound; ++i) {
      buildsOk =
          passes.run(builds, options.trace && i % 2 == 1, result) && buildsOk;
    }
    const unsigned f = r % kFabrics;
    const ChurnFabric& fabric = fabrics[f];
    // The traced run alternates untraced and traced rounds, shifted by one
    // on every cycle over the fabrics so each fabric gets both.
    const bool traced = options.trace && (r + r / kFabrics) % 2 == 1;
    RoundOutcome outcome = runRound(
        *fabric.topo, fabric.baseline->table(), fabric.rounds[r / kFabrics],
        traced, options.seed + 100 + r);
    const bool roundOk =
        outcome.allPublishedOk && outcome.oracleViolations == 0;
    for (const EventRecord& event : outcome.events) {
      result.operation(event.visible && roundOk);
      if (!event.visible) continue;
      (traced ? tracedVisibleMs : visibleMs).push_back(event.visibleMs());
      if (!traced) {
        (event.linkDown ? downMs : upMs).push_back(event.visibleMs());
      }
    }
    if (traced) layers.add(outcome);
    outcome.spans.clear();
    outcomes.push_back(std::move(outcome));
    outcomeFabric.push_back(f);
  }

  // Correctness, outside the timed region.
  std::vector<std::uint64_t> healthyFingerprints;
  for (const ChurnFabric& fabric : fabrics) {
    fault::Reconfigurator reconfigurator(*fabric.topo);
    const fault::ReconfigOutcome healthy = reconfigurator.rebuild(
        std::vector<std::uint8_t>(fabric.topo->linkCount(), 1),
        std::vector<std::uint8_t>(fabric.topo->nodeCount(), 1));
    healthyFingerprints.push_back(healthy.table->fingerprint());
  }
  const std::uint64_t healthyFingerprint = healthyFingerprints.front();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RoundOutcome& o = outcomes[i];
    const std::string round = "round " + std::to_string(i);
    result.check(o.allPublishedOk, round + ": every published epoch verified");
    result.check(o.oracleViolations == 0, round + ": zero oracle violations");
    result.check(o.absorbed == o.posted,
                 round + ": every posted transition absorbed");
    result.check(o.finalFingerprint == healthyFingerprints[outcomeFabric[i]],
                 round + ": final epoch equals a full rebuild of the healthy "
                         "fabric");
  }
  if (options.seed == kPinnedSeed) {
    result.check(healthyFingerprint == kPinnedFinalFingerprint,
                 "final-epoch fingerprint matches the pinned value");
  }
  result.check(buildsOk, "every construction pass verified");
  for (const ChurnFabric& fabric : fabrics) {
    const BuildInput& build = fabric.build;
    BuildArtefacts artefacts;
    const BuildTimes t = constructionPass(build, nullptr, &artefacts);
    result.check(t.verified, "construction fabric: verifyRouting and oracle ok");
    result.check(!artefacts.incremental ||
                     incrementalMatchesMaskedBuild(build, artefacts),
                 "construction fabric: incremental table equals masked full "
                 "build");
  }

  result.note("final-epoch fingerprint " + hex(healthyFingerprint) + "; " +
              std::to_string(outcomes.size()) + " rounds");
  const auto percentiles = [](const char* name,
                              const std::vector<double>& ms) {
    char line[160];
    std::snprintf(line, sizeof line, "%s p50 %.6g ms, p90 %.6g ms (n=%zu)",
                  name, median(ms), quantile(ms, 0.9), ms.size());
    return std::string(line);
  };
  result.note(percentiles("fault_to_visible", visibleMs));
  result.note(percentiles("link_down_visible", downMs));
  result.note(percentiles("link_up_visible", upMs));
  passes.reportEndToEnd(result, median(visibleMs), setupSeconds);

  if (!options.trace) return;
  passes.reportLayers(result, generateSeconds([&] {
                        return makeFabric(kChurnSwitches, kChurnPorts,
                                          options.seed);
                      }));
  const stats::ExperimentConfig config = fig8Config(options.seed, 1);
  reportSimStatsLayers(config, fig8Fabrics(config), result);
  layers.report(result);
  reportTraceCost(result, median(tracedVisibleMs), median(visibleMs),
                  layers.coverage());
  result.check(layers.coverage() >= 0.95,
               "spans tile >= 95% of fault-to-visible time");
}

}  // namespace perfbench
