// Simulator speed on the 128-switch reference topology, printed to stdout:
// cycles/sec at near-idle, mid-load and near-saturation offered loads, the
// near-saturation load again with the full time-resolved observer attached
// (the enabled-path observability cost), and a per-phase table (ns/cycle
// and IPC of each engine phase) near idle and near saturation.  The
// repository benchmark (perfbench) times whole regenerations; this suite
// resolves an engine change to the phase it moved.
//
//   ./bench_micro
#include <chrono>
#include <cstdio>
#include <iterator>

#include "core/downup_routing.hpp"
#include "obs/observer.hpp"
#include "sim/network.hpp"
#include "topology/generate.hpp"
#include "util/cli.hpp"
#include "util/perf_counters.hpp"

namespace {

using namespace downup;

constexpr int kScenarioWarmSteps = 20000;   // reach the steady state
constexpr int kScenarioTimedSteps = 200000;

struct Scenario {
  const char* name;
  double offeredLoad;  // flits/node/cycle
};

constexpr Scenario kScenarios[] = {
    {"near_idle", 0.002},
    {"mid_load", 0.05},
    {"near_saturation", 0.10},  // saturation probes at ~0.105 on this topo
};

double scenarioCyclesPerSec(const routing::Routing& routing,
                            const sim::TrafficPattern& traffic, double load,
                            obs::Observer* observer = nullptr) {
  sim::SimConfig config;
  config.packetLengthFlits = 128;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // stepped manually
  config.observer = observer;
  sim::WormholeNetwork net(routing.table(), traffic, load, config);
  for (int i = 0; i < kScenarioWarmSteps; ++i) net.step();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kScenarioTimedSteps; ++i) net.step();
  const auto t1 = std::chrono::steady_clock::now();
  return kScenarioTimedSteps / std::chrono::duration<double>(t1 - t0).count();
}

// Counted phase attribution runs far fewer steps than the throughput
// scenarios: the counted path reads the perf group five times per cycle,
// which is measurement infrastructure, not simulator speed — the table
// answers "which phase is low-IPC / cache-bound", not "how fast".
constexpr int kCountedWarmSteps = 2000;
constexpr int kCountedTimedSteps = 20000;

/// Prints per-phase wall-clock + counter attribution for one scenario.
/// Uses the engine's counted phase path when the group is available and
/// degrades to wall-clock-only attribution (the plain profiled path)
/// otherwise.
void printPhaseScenario(const char* name, double load,
                        const routing::Routing& routing,
                        const topo::Topology& topo,
                        const tree::CoordinatedTree& ct,
                        const sim::TrafficPattern& traffic,
                        util::PerfCounterGroup& group) {
  obs::Observer observer({.profilePhases = true}, topo, &ct);
  observer.profiler()->attachCounters(&group);
  sim::SimConfig config;
  config.packetLengthFlits = 128;
  config.warmupCycles = 0;
  config.measureCycles = 1u << 30;  // stepped manually
  config.observer = &observer;
  sim::WormholeNetwork net(routing.table(), traffic, load, config);
  for (int i = 0; i < kCountedWarmSteps; ++i) net.step();
  observer.profiler()->reset();
  for (int i = 0; i < kCountedTimedSteps; ++i) net.step();

  const obs::PhaseProfiler& profiler = *observer.profiler();
  const double cycles = static_cast<double>(
      profiler.cycles() == 0 ? 1 : profiler.cycles());
  for (std::uint8_t p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::PhaseProfiler::Phase>(p);
    const util::PerfCounts counts = profiler.phaseCounts(phase);
    char ipcText[16] = "-";
    if (counts.ipc() >= 0) {
      std::snprintf(ipcText, sizeof ipcText, "%.2f", counts.ipc());
    }
    std::printf("bench_micro phase %-16s %-14s %8.1f ns/cycle  ipc %s\n",
                name, obs::PhaseProfiler::toString(phase),
                static_cast<double>(profiler.phaseNanos(phase)) / cycles,
                ipcText);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_micro",
                "simulator cycles/sec at three offered loads and per-phase "
                "attribution on the 128-switch reference topology");
  cli.parse(argc, argv);

  util::Rng topoRng(7);
  const topo::Topology topo =
      topo::randomIrregular(128, {.maxPorts = 4}, topoRng);
  util::Rng rng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, rng);
  const routing::Routing routing = core::buildDownUp(topo, ct);
  const sim::UniformTraffic traffic(topo.nodeCount());

  for (const Scenario& scenario : kScenarios) {
    std::printf("bench_micro %-24s %12.0f cycles/sec\n", scenario.name,
                scenarioCyclesPerSec(routing, traffic, scenario.offeredLoad));
  }
  // Near-saturation rerun with the full time-resolved observer attached
  // (metrics + windowed time series with per-channel counts + wait-for
  // sampling): the enabled-path overhead next to the bare number.
  const double saturationLoad =
      kScenarios[std::size(kScenarios) - 1].offeredLoad;
  {
    obs::Observer observer({.metrics = true,
                            .timeseriesWindowCycles = 1024,
                            .timeseriesPerChannel = true,
                            .waitForSamplePeriod = 128},
                           topo, &ct);
    std::printf("bench_micro %-24s %12.0f cycles/sec\n",
                "near_saturation_observed",
                scenarioCyclesPerSec(routing, traffic, saturationLoad,
                                     &observer));
  }

  // Per-phase attribution near idle vs near saturation: which engine phase
  // is low-IPC / cache-bound as load rises.  Availability is always spelled
  // out so a PMU-less container reports wall-clock attribution, not silent
  // zeros.
  util::PerfCounterGroup group;
  if (!group.available()) {
    std::printf("bench_micro: counters unavailable: %s (phase attribution "
                "is wall-clock only)\n",
                group.unavailableReason().c_str());
  } else if (!group.degradedReason().empty()) {
    std::printf("bench_micro: counters partial (%s)\n",
                group.degradedReason().c_str());
  }
  printPhaseScenario("near_idle", kScenarios[0].offeredLoad, routing, topo,
                     ct, traffic, group);
  printPhaseScenario("near_saturation", saturationLoad, routing, topo, ct,
                     traffic, group);
  return 0;
}
