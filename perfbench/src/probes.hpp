// The Figure 8 configuration (the quick mode exp_fig8_latency runs by
// default) and the simulator/statistics layer probes every traced run
// reports on it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "stats/experiment.hpp"

namespace perfbench {

/// exp_fig8_latency's default configuration with `seed` as its base seed:
/// 32 switches, 3 samples, 4 and 8 ports, M1/M2/M3, L-turn and DOWN/UP,
/// 8 load points, 3000 warm-up and 12000 measured cycles, 128-flit packets.
stats::ExperimentConfig fig8Config(std::uint64_t seed, unsigned threads);

/// The experiment driver's per-(ports, sample, stage) seed derivation, so
/// the benchmark regenerates exactly the fabrics runExperiment simulates.
std::uint64_t fig8Seed(std::uint64_t base, std::uint64_t ports,
                       std::uint64_t sample, std::uint64_t stage,
                       std::uint64_t extra = 0);

/// One sample fabric of the experiment with its construction-pass inputs:
/// one per tree policy the experiment builds, each reconfiguring for the
/// same four cross-link failures.
struct Fig8Fabric {
  unsigned ports = 0;
  unsigned sample = 0;
  std::unique_ptr<topo::Topology> topo;
  std::vector<BuildInput> builds;
};

/// Every (ports, sample) fabric runExperiment generates.
std::vector<Fig8Fabric> fig8Fabrics(const stats::ExperimentConfig& config);

/// Times core::buildRouting, stats::probeSaturationLoad and
/// stats::runSweep on `config`, and steps sim::WormholeNetwork on the
/// 4-port sample-0 DOWN/UP fabric at an idle, a mid and a saturating load
/// (fractions of the probed saturation load).  Reports core.build_routing_s,
/// stats.probe_s, stats.sweep_s and sim.cycles_per_s.{idle,mid,saturated}.
void reportSimStatsLayers(const stats::ExperimentConfig& config,
                          const std::vector<Fig8Fabric>& fabrics,
                          Result& result);

}  // namespace perfbench
