#include "probes.hpp"

#include <algorithm>

#include "sim/network.hpp"
#include "stats/sweep.hpp"
#include "tree/coordinated_tree.hpp"

namespace perfbench {

stats::ExperimentConfig fig8Config(std::uint64_t seed, unsigned threads) {
  stats::ExperimentConfig config;  // 32 switches, 3 samples, 4 and 8 ports
  config.loadPoints = 8;
  config.sim.warmupCycles = 3000;
  config.sim.measureCycles = 12000;
  config.sim.packetLengthFlits = 128;
  config.maxLoadPerPort = 0.06;
  config.baseSeed = seed;
  config.threads = threads;
  return config;
}

std::uint64_t fig8Seed(std::uint64_t base, std::uint64_t ports,
                       std::uint64_t sample, std::uint64_t stage,
                       std::uint64_t extra) {
  util::SplitMix64 sm(base ^ (ports * 0x9e3779b97f4a7c15ULL) ^
                      (sample * 0xbf58476d1ce4e5b9ULL) ^
                      (stage * 0x94d049bb133111ebULL) ^ (extra + 1));
  return sm.next();
}

std::vector<Fig8Fabric> fig8Fabrics(const stats::ExperimentConfig& config) {
  std::vector<Fig8Fabric> fabrics;
  for (const unsigned ports : config.portConfigs) {
    for (unsigned sample = 0; sample < config.samples; ++sample) {
      Fig8Fabric fabric;
      fabric.ports = ports;
      fabric.sample = sample;
      fabric.topo = std::make_unique<topo::Topology>(
          makeFabric(config.switches, ports,
                     fig8Seed(config.baseSeed, ports, sample, 1)));
      const std::vector<topo::LinkId> failures = pickCrossLinks(
          *fabric.topo, fig8Seed(config.baseSeed, ports, sample, 6), 4);
      for (const tree::TreePolicy policy : config.policies) {
        fabric.builds.push_back(
            {fabric.topo.get(), policy,
             fig8Seed(config.baseSeed, ports, sample, 2,
                      static_cast<std::uint64_t>(policy)),
             failures});
      }
      fabrics.push_back(std::move(fabric));
    }
  }
  return fabrics;
}

namespace {

/// Cycles per second of one network stepped for about `seconds` after a
/// warm-up, at `load` flits/node/cycle.
double cyclesPerSecond(const routing::RoutingTable& table,
                       const sim::TrafficPattern& traffic, double load,
                       sim::SimConfig config, double seconds) {
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // stepped manually
  sim::WormholeNetwork net(table, traffic, load, config);
  for (int i = 0; i < 3000; ++i) net.step();
  std::uint64_t steps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    for (int i = 0; i < 1000; ++i) net.step();
    steps += 1000;
    elapsed = secondsSince(t0);
  }
  return static_cast<double>(steps) / elapsed;
}

}  // namespace

void reportSimStatsLayers(const stats::ExperimentConfig& config,
                          const std::vector<Fig8Fabric>& fabrics,
                          Result& result) {
  // Every routing runExperiment builds, serially.
  const auto t0 = Clock::now();
  for (const Fig8Fabric& fabric : fabrics) {
    for (const tree::TreePolicy policy : config.policies) {
      util::Rng rng(fig8Seed(config.baseSeed, fabric.ports, fabric.sample, 2,
                             static_cast<std::uint64_t>(policy)));
      const tree::CoordinatedTree ct =
          tree::CoordinatedTree::build(*fabric.topo, policy, rng);
      for (const core::Algorithm algorithm : config.algorithms) {
        const routing::Routing routing =
            core::buildRouting(algorithm, *fabric.topo, ct);
        result.operation(routing.table().allPairsConnected());
      }
    }
  }
  result.layer("core.build_routing_s", secondsSince(t0), "s");

  // The saturation probe runExperiment runs once per port count, and one
  // cell's sweep (4 ports, sample 0, M1, DOWN/UP) on the grid it sizes.
  const Fig8Fabric& fabric = fabrics.front();
  const sim::UniformTraffic traffic(fabric.topo->nodeCount());
  util::Rng treeRng(fig8Seed(config.baseSeed, fabric.ports, 0, 4));
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      *fabric.topo, tree::TreePolicy::kM1SmallestFirst, treeRng);
  const routing::Routing routing =
      core::buildRouting(core::Algorithm::kDownUp, *fabric.topo, ct);
  sim::SimConfig probeConfig = config.sim;
  probeConfig.seed = fig8Seed(config.baseSeed, fabric.ports, 0, 5);
  const auto t1 = Clock::now();
  const double probed =
      stats::probeSaturationLoad(routing.table(), traffic, probeConfig);
  result.layer("stats.probe_s", secondsSince(t1), "s");

  const std::vector<double> loads =
      stats::loadGrid(std::min(1.0, 1.8 * probed), config.loadPoints);
  sim::SimConfig sweepConfig = config.sim;
  sweepConfig.seed = fig8Seed(config.baseSeed, fabric.ports, 0, 3,
                              static_cast<std::uint64_t>(core::Algorithm::kDownUp));
  const auto t2 = Clock::now();
  const std::vector<stats::SweepPoint> sweep =
      stats::runSweep(routing.table(), traffic, loads, sweepConfig);
  result.layer("stats.sweep_s", secondsSince(t2), "s");
  for (const stats::SweepPoint& point : sweep) {
    result.operation(point.stats.acceptedFlitsPerNodePerCycle > 0.0);
  }

  // Engine speed per load band, so an idle-cycle fast-forward and an
  // arbitration speed-up each show in their own band.
  const struct {
    const char* name;
    double fraction;
  } kBands[] = {{"sim.cycles_per_s.idle", 0.05},
                {"sim.cycles_per_s.mid", 0.5},
                {"sim.cycles_per_s.saturated", 1.5}};
  for (const auto& band : kBands) {
    result.layer(band.name,
                 cyclesPerSecond(routing.table(), traffic,
                                 std::min(1.0, band.fraction * probed),
                                 config.sim, 0.25),
                 "1/s");
  }
}

}  // namespace perfbench
