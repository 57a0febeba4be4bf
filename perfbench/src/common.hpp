// Shared plumbing for the repository benchmark: the result record every
// workload fills, timing and statistics helpers, the construction pass all
// three workloads time on their own fabrics, and span attribution.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/downup_routing.hpp"
#include "topology/topology.hpp"
#include "util/perf_counters.hpp"
#include "util/span_recorder.hpp"

namespace perfbench {

using namespace downup;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned hardwareThreads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.  End-to-end metrics come from the
/// untraced passes; per-layer metrics from the traced run (--trace 1).
class Result {
 public:
  void endToEnd(std::string name, double value, std::string unit) {
    endToEnd_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A correctness check: a failing one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// One attempted operation (a simulation point, a build, a fault event).
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void note(std::string line) { notes_.push_back(std::move(line)); }

  const std::vector<Metric>& endToEndMetrics() const { return endToEnd_; }
  const std::vector<Metric>& layerMetrics() const { return layers_; }
  const std::vector<std::string>& notes() const { return notes_; }
  bool correct() const { return failedChecks_ == 0; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> endToEnd_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::uint64_t checks_ = 0;
  std::uint64_t failedChecks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- timing and statistics ---

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile of a copy of `values` (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// What a run reports for repeated timings of the same work: the 10th
/// percentile of its samples.  On a shared host the whole machine switches
/// between fast and slow phases lasting from a fraction of a second to tens
/// of seconds, and how much of a run falls into slow phases differs from
/// run to run; the median moves with that share, a low quantile only needs
/// a tenth of the samples to land in a fast phase.  Latencies of distinct
/// events (fault-to-visible) stay medians: their spread is the workload's.
inline double steadyTime(const std::vector<double>& samples) {
  return quantile(samples, 0.1);
}
/// "name p10 T unit (n=N, min A, median M, max B)" for the run's notes.
std::string describe(const std::string& name,
                     const std::vector<double>& samples,
                     const std::string& unit);

/// Peak resident set size of this process so far (getrusage), in MB.
double peakRssMb();

/// FNV-1a over bytes, chained through `hash`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

std::string hex(std::uint64_t value);

/// One set-up sample: calls `setup` (which returns the inputs it made) until
/// at least 20 ms have passed, appends the mean wall time of one call to
/// `samples` and returns the last call's inputs.  Workloads sample before
/// the timed region and again between timed iterations, so the median
/// reflects the machine over the whole run, as the timed metrics do, and a
/// sub-millisecond set-up is not timed at the clock's resolution.
template <typename Fn>
auto timedSetup(std::vector<double>& samples, Fn&& setup) {
  const auto t0 = Clock::now();
  auto inputs = setup();
  int calls = 1;
  for (; secondsSince(t0) < 0.02; ++calls) inputs = setup();
  samples.push_back(secondsSince(t0) / calls);
  return inputs;
}

/// topology.generate_s: the median of five set-up samples of `generate`.
template <typename Fn>
double generateSeconds(Fn&& generate) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) timedSetup(samples, generate);
  return median(samples);
}

// --- inputs ---

/// Random irregular fabric (the paper's generator).
topo::Topology makeFabric(topo::NodeId switches, unsigned ports,
                          std::uint64_t seed);

/// `count` distinct links whose failure, one at a time, cannot partition
/// the fabric: links outside the breadth-first spanning tree rooted at
/// switch 0 (neighbours in ascending id order, the tree CoordinatedTree
/// builds), so the tree survives.  Chosen from the seed, preferring links
/// that join two switches on the deepest tree level that has such links,
/// which keeps the incremental path's dirty set small on every seed.
std::vector<topo::LinkId> pickCrossLinks(const topo::Topology& topo,
                                         std::uint64_t seed, unsigned count);

/// True when the fabric stays connected with `linkAlive[l] == 0` links gone.
bool connected(const topo::Topology& topo,
               const std::vector<std::uint8_t>& linkAlive);

/// One bit per channel, set for channels of alive links.
std::vector<std::uint64_t> channelAliveWords(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linkAlive);

// --- the construction pass ---

/// Timings of one cold construction on one fabric: coordinated tree ->
/// DOWN/UP table -> verifyRouting -> deep oracle audit -> one incremental
/// reconfiguration per chosen cross-link failure.
struct BuildTimes {
  double buildSeconds = 0.0;     // tree + buildDownUp
  double verifySeconds = 0.0;    // verifyRouting
  double oracleSeconds = 0.0;    // verify::runOracle, deep distance check
  double reconfigSeconds = 0.0;  // Reconfigurator::rebuildIncremental, summed
  bool verified = true;          // verifyRouting and the oracle both ok
  bool reconfigOk = true;        // every incremental epoch ok
  std::uint32_t reconfigurations = 0;
  std::uint32_t dirtyDestinations = 0;  // summed over the failures

  double verifiedBuildSeconds() const {
    return buildSeconds + verifySeconds + oracleSeconds;
  }
  void add(const BuildTimes& other);
};

/// One fabric the construction pass runs on, with its tree and the
/// single-link failures it reconfigures for, one at a time (a link may
/// repeat).
struct BuildInput {
  const topo::Topology* topo = nullptr;
  tree::TreePolicy policy = tree::TreePolicy::kM1SmallestFirst;
  std::uint64_t treeSeed = 0;
  std::vector<topo::LinkId> failedLinks;
};

/// Optional artefacts of a construction pass, for the correctness checks:
/// the healthy routing and the epoch for the first failure.
struct BuildArtefacts {
  std::unique_ptr<routing::Routing> routing;
  std::unique_ptr<routing::TurnPermissions> incrPerms;
  std::unique_ptr<routing::RoutingTable> incrTable;
  bool incremental = false;
};

/// Runs the construction pass once.  `spans` (optional) records one span
/// per stage, named after the layer that owns it, around each public call.
BuildTimes constructionPass(const BuildInput& input,
                            util::SpanRecorder* spans = nullptr,
                            BuildArtefacts* keep = nullptr);

/// True when the incremental table equals a full build of the same turn
/// rule masked to the surviving channels (the incremental path's contract).
/// Run outside the timed region.
bool incrementalMatchesMaskedBuild(const BuildInput& input,
                                   const BuildArtefacts& artefacts);

/// The construction passes of one run.  Untraced passes give the
/// end-to-end samples; traced passes record one `construct` root span per
/// input with a stage span around each public call, perf counters and
/// allocation attribution.  Must be used from the thread that created it
/// (the counters count that thread).
class PassRecorder {
 public:
  PassRecorder();

  /// Runs one pass over `inputs` (their times summed into one sample) on
  /// the calling thread, pinned to the next CPU in turn, counting one
  /// operation per input.  Returns false when a build did not verify or a
  /// reconfiguration was not ok.
  bool run(std::span<const BuildInput> inputs, bool traced, Result& result);

  /// build_s, verified_build_s and reconfig_incr_s (steadyTime of the
  /// untraced passes; reconfig_incr_s is a pass's mean time of one
  /// reconfiguration), with the workload's task_ms, setup_s (steadyTime of
  /// `setupSeconds`) and peak_rss_mb.
  void reportEndToEnd(Result& result, double taskMs,
                      const std::vector<double>& setupSeconds) const;

  /// The per-stage layer metrics of the traced passes plus
  /// topology.generate_s, fault.dirty_destinations (per reconfiguration)
  /// and fault.incr_ms_per_dirty_destination.
  void reportLayers(Result& result, double generateSeconds) const;

  /// Share (0..1) of the traced `construct` roots their stage spans tile.
  double coverage() const;

 private:
  util::PerfCounterGroup counters_;
  util::SpanRecorder spans_;
  std::vector<double> build_, verified_, reconfig_, dirty_, perDirtyMs_;
  int tracedPasses_ = 0;
  unsigned turn_ = 0, tracedTurn_ = 0;  // CPU rotation, see CpuTurn
};

/// obs.trace_overhead_pct (traced over untraced task time, both taken as
/// the workload takes task_ms) and obs.span_coverage_pct.
void reportTraceCost(Result& result, double tracedTaskMs, double taskMs,
                     double coverage);

// --- workloads ---

void runPaperFig8(const Options& options, Result& result);
void runConstruct2048(const Options& options, Result& result);
void runFabricChurn256(const Options& options, Result& result);

}  // namespace perfbench
