// Construction-time benchmark: how long it takes to go from a bare
// irregular topology to a verified DOWN/UP routing table, stage by stage,
// across network sizes — and how much the batched release pass, the
// parallel table build and incremental reconfiguration buy over the
// reference implementations.
//
// Stages timed per size (best of --repeats runs):
//   tree            coordinated-tree construction (M1 policy)
//   classify        Definition-5 channel-direction classification
//   repair          turn-rule construction + residual-cycle repair
//   releaseDfs      reference release pass (one DFS per candidate turn);
//                   skipped above --dfs-max-switches (printed as 0.00)
//   releaseBatched  production release pass (SCC condensation + bitset
//                   reachability, incrementally maintained)
//   tableSerial     RoutingTable::build, single thread
//   tableParallel   RoutingTable::build over --threads workers (the same
//                   per-destination blocks fanned out; bit-for-bit
//                   identical output)
//   fullSerial      tree -> table end to end, single thread
//   fullParallel    same with the worker pool
//   reconfigFull    fault::Reconfigurator::rebuild after one link failure
//   reconfigIncr    fault::Reconfigurator::rebuildIncremental for the same
//                   failure (inherits the turn rule, rebuilds dirty
//                   destinations only; checked identical to the masked
//                   full build before timing)
//
// Prints one row per size.  --spans-out records one untimed instrumented
// build + reconfiguration per size as control-plane spans.  The bench
// exits 1 when the incremental table differs from the masked full build.
//
//   ./bench_build --max-switches 1024 --threads 4 --repeats 3
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/downup_routing.hpp"
#include "core/release.hpp"
#include "core/repair.hpp"
#include "fault/reconfigure.hpp"
#include "obs/span.hpp"
#include "topology/generate.hpp"
#include "util/cli.hpp"
#include "util/span_recorder.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace downup;
using Clock = std::chrono::steady_clock;

// Folded into every timed result so the optimiser cannot delete the work.
std::uint64_t gSink = 0;
inline void keep(std::uint64_t v) {
  gSink ^= v;
  asm volatile("" : : "g"(&gSink) : "memory");
}

template <typename Fn>
double timeMs(int repeats, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

struct SizeResult {
  topo::NodeId switches = 0;
  double treeMs = 0;
  double classifyMs = 0;
  double repairMs = 0;
  double releaseDfsMs = -1;  // < 0: skipped
  double releaseBatchedMs = 0;
  double tableSerialMs = 0;
  double tableParallelMs = 0;
  double fullSerialMs = 0;
  double fullParallelMs = 0;
  double reconfigFullMs = 0;
  double reconfigIncrMs = 0;
  double incrementalDirtyFraction = 0;
};

SizeResult benchOneSize(topo::NodeId switches, util::ThreadPool& pool,
                        int repeats, int dfsMaxSwitches,
                        util::SpanRecorder* spans) {
  SizeResult res;
  res.switches = switches;

  util::Rng topoRng(7);
  const topo::Topology topo =
      topo::randomIrregular(switches, {.maxPorts = 4}, topoRng);

  res.treeMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(ct.root());
  });

  util::Rng treeRng(3);
  const tree::CoordinatedTree ct = tree::CoordinatedTree::build(
      topo, tree::TreePolicy::kM1SmallestFirst, treeRng);

  res.classifyMs = timeMs(repeats, [&] {
    const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);
    keep(dirs.size());
  });
  const routing::DirectionMap dirs = routing::classifyDownUp(topo, ct);

  res.repairMs = timeMs(repeats, [&] {
    routing::TurnPermissions perms(topo, dirs, core::downUpTurnSet());
    keep(core::repairTurnCycles(perms).blockedTurns);
  });

  // Master repaired rule; the release stages time only the pass itself on a
  // fresh copy each repeat.
  routing::TurnPermissions repaired(topo, dirs, core::downUpTurnSet());
  core::repairTurnCycles(repaired);

  if (switches <= static_cast<topo::NodeId>(dfsMaxSwitches)) {
    res.releaseDfsMs = timeMs(repeats, [&] {
      routing::TurnPermissions perms = repaired;
      keep(core::releaseRedundantProhibitionsDfs(perms).releasedTurns);
    });
  }
  res.releaseBatchedMs = timeMs(repeats, [&] {
    routing::TurnPermissions perms = repaired;
    keep(core::releaseRedundantProhibitions(perms).releasedTurns);
  });

  routing::TurnPermissions released = repaired;
  core::releaseRedundantProhibitions(released);

  res.tableSerialMs = timeMs(repeats, [&] {
    keep(routing::RoutingTable::build(released).fingerprint());
  });
  res.tableParallelMs = timeMs(repeats, [&] {
    keep(routing::RoutingTable::build(released, &pool).fingerprint());
  });

  res.fullSerialMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree t = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(core::buildDownUp(topo, t).table().fingerprint());
  });
  res.fullParallelMs = timeMs(repeats, [&] {
    util::Rng rng(3);
    const tree::CoordinatedTree t = tree::CoordinatedTree::build(
        topo, tree::TreePolicy::kM1SmallestFirst, rng);
    keep(core::buildDownUp(topo, t, {.pool = &pool}).table().fingerprint());
  });

  // Reconfiguration after one non-partitioning link failure: full rebuild
  // vs the incremental path, from the same healthy previous epoch.  The
  // failed link is the sampled link with the LOWEST dirty fraction that
  // does not partition the network — the cross-link case the incremental
  // path is designed for.  Tree-link failures usually trip the
  // connectivity fallback (the inherited rule cannot serve the severed
  // subtree) and cost a full rebuild plus the applicability checks; the
  // dirty column discloses which case this run measured, and
  // exp_fault_resilience measures the aggregate over random failures.
  const fault::Reconfigurator reconfigurator(topo, &pool);
  const std::vector<std::uint8_t> nodesUp(topo.nodeCount(), 1);
  std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  const fault::ReconfigOutcome healthy =
      reconfigurator.rebuild(linksUp, nodesUp);
  {
    const topo::LinkId linkCount = topo.linkCount();
    const topo::LinkId stride = std::max<topo::LinkId>(1, linkCount / 64);
    std::vector<std::pair<double, topo::LinkId>> sampled;
    for (topo::LinkId l = 0; l < linkCount; l += stride) {
      linksUp[l] = 0;
      sampled.emplace_back(reconfigurator.incrementalDirtyFraction(
                               *healthy.table, linksUp, nodesUp),
                           l);
      linksUp[l] = 1;
    }
    std::sort(sampled.begin(), sampled.end());
    for (const auto& [fraction, l] : sampled) {
      linksUp[l] = 0;
      const fault::ReconfigOutcome probe =
          reconfigurator.rebuild(linksUp, nodesUp);
      if (probe.ok() && probe.components == 1) break;  // keep this failure
      linksUp[l] = 1;
    }
  }

  res.incrementalDirtyFraction = reconfigurator.incrementalDirtyFraction(
      *healthy.table, linksUp, nodesUp);
  {
    // Sanity: the incremental epoch must match the masked full build of the
    // inherited rule bit for bit (also exercised by the unit tests; cheap
    // to re-assert here where ASan sweeps run the 4096-switch sizes).
    const fault::ReconfigOutcome incr =
        reconfigurator.rebuildIncremental(*healthy.table, linksUp, nodesUp);
    if (incr.incremental) {
      std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
      for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
        if (linksUp[topo::Topology::linkOf(c)] != 0) {
          alive[c >> 6] |= std::uint64_t{1} << (c & 63);
        }
      }
      const routing::RoutingTable masked =
          routing::RoutingTable::build(*incr.perms, &pool, alive);
      if (!incr.table->identicalTo(masked)) {
        std::fprintf(stderr,
                     "bench_build: incremental table mismatch at %u switches\n",
                     static_cast<unsigned>(switches));
        std::exit(1);
      }
    }
  }

  res.reconfigFullMs = timeMs(repeats, [&] {
    keep(reconfigurator.rebuild(linksUp, nodesUp).rebuiltDestinations);
  });
  res.reconfigIncrMs = timeMs(repeats, [&] {
    keep(reconfigurator
                 .rebuildIncremental(*healthy.table, linksUp, nodesUp)
                 .rebuiltDestinations);
  });

  // One untimed instrumented pass per size: record the full rebuild and the
  // incremental reconfiguration stage spans outside the timed loops so the
  // timings above stay undisturbed.
  if (spans != nullptr) {
    keep(routing::RoutingTable::build(released, &pool, {}, spans)
             .fingerprint());
    fault::Reconfigurator traced(topo, &pool);
    traced.setSpans(spans);
    keep(traced.rebuild(linksUp, nodesUp).rebuiltDestinations);
    keep(traced.rebuildIncremental(*healthy.table, linksUp, nodesUp)
             .rebuiltDestinations);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_build",
                "routing-construction benchmark: per-stage timings, serial "
                "vs parallel, full vs incremental reconfiguration");
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = cli.positiveOption<int>(
      "threads", static_cast<int>(hw == 0 ? 1 : hw),
      "worker threads for the parallel stages");
  auto maxSwitches = cli.positiveOption<int>(
      "max-switches", 1024, "largest network size in the sweep (up to 4096)");
  auto minSwitches = cli.positiveOption<int>(
      "min-switches", 64, "smallest network size in the sweep");
  auto repeats = cli.positiveOption<int>(
      "repeats", 3, "timed repetitions per stage (best is reported)");
  auto dfsMax = cli.positiveOption<int>(
      "dfs-max-switches", 1024,
      "largest size on which the reference DFS release pass is timed");
  auto spansOpt = cli.option<std::string>(
      "spans-out", "",
      "control-plane span path prefix (.{jsonl,trace.json} appended); "
      "records one untimed instrumented build + reconfiguration per size");
  cli.parse(argc, argv);

  util::ThreadPool pool(static_cast<std::size_t>(*threads));
  util::SpanRecorder spans;
  util::SpanRecorder* spansPtr = spansOpt->empty() ? nullptr : &spans;
  std::printf("%8s %8s %8s %8s %9s %9s %9s %9s %9s %9s %9s %9s %6s\n",
              "switches", "tree", "classify", "repair", "relDFS", "relBatch",
              "tblSer", "tblPar", "fullSer", "fullPar", "rcfgFull",
              "rcfgIncr", "dirty");
  for (const int size : {64, 128, 256, 512, 1024, 2048, 4096}) {
    if (size < *minSwitches || size > *maxSwitches) continue;
    const SizeResult r =
        benchOneSize(static_cast<topo::NodeId>(size), pool, *repeats, *dfsMax,
                     spansPtr);
    std::printf("%8u %8.2f %8.2f %8.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f "
                "%9.2f %9.2f %5.1f%%\n",
                static_cast<unsigned>(r.switches), r.treeMs, r.classifyMs,
                r.repairMs, r.releaseDfsMs < 0 ? 0.0 : r.releaseDfsMs,
                r.releaseBatchedMs, r.tableSerialMs, r.tableParallelMs,
                r.fullSerialMs, r.fullParallelMs, r.reconfigFullMs,
                r.reconfigIncrMs, 100.0 * r.incrementalDirtyFraction);
    std::fflush(stdout);
  }
  std::printf("(milliseconds, best of %d; relDFS 0.00 = skipped above "
              "--dfs-max-switches; dirty = share of destinations the "
              "incremental reconfiguration rebuilt; %d thread%s)\n",
              *repeats, *threads, *threads == 1 ? "" : "s");

  if (spansPtr != nullptr) {
    {
      std::ofstream out(*spansOpt + ".jsonl");
      obs::writeSpansJsonl(spans, out);
    }
    {
      std::ofstream out(*spansOpt + ".trace.json");
      obs::writeSpansChromeTrace(spans, out);
    }
    std::printf("bench_build: wrote %s.{jsonl,trace.json}\n",
                spansOpt->c_str());
  }
  return 0;
}
