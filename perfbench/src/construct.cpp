// construct_2048: a cold construction on a 2048-switch, 4-port fabric --
// coordinated tree, DOWN/UP table, verifyRouting, deep oracle audit -- and
// incremental reconfiguration for a fixed cross-link failure.
#include "churn.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr topo::NodeId kSwitches = 2048;
constexpr unsigned kPorts = 4;
constexpr std::uint64_t kPinnedSeed = 1;
constexpr std::uint64_t kPinnedFingerprint = 0x536128890232166eULL;
// The one failure is reconfigured this many times per pass and
// reconfig_incr_s is their mean: a single 0.6 s reconfiguration of a
// 400 MB table swings by a third between samples on a shared machine.
constexpr unsigned kReconfigRepeats = 2;

struct ConstructInputs {
  std::unique_ptr<topo::Topology> topo;
  BuildInput input;
};

ConstructInputs makeInputs(std::uint64_t seed) {
  ConstructInputs in;
  in.topo = std::make_unique<topo::Topology>(
      makeFabric(kSwitches, kPorts, seed));
  const topo::LinkId link = pickCrossLinks(*in.topo, seed + 3, 1).front();
  in.input = {in.topo.get(), tree::TreePolicy::kM1SmallestFirst, seed + 1,
              std::vector<topo::LinkId>(kReconfigRepeats, link)};
  return in;
}

}  // namespace

void runConstruct2048(const Options& options, Result& result) {
  const auto setup = [&] { return makeInputs(options.seed); };
  std::vector<double> setupSeconds;
  const ConstructInputs in = timedSetup(setupSeconds, setup);
  const BuildInput& input = in.input;
  result.note("construct_2048: 2048 switches, 4 ports, " +
              std::to_string(in.topo->linkCount()) +
              " links; single thread; failed cross-link " +
              std::to_string(input.failedLinks.front()));

  PassRecorder passes;
  std::vector<double> task, tracedTask;
  bool allOk = true;
  const auto start = Clock::now();
  for (int iteration = 0;
       iteration < 2 || secondsSince(start) < options.seconds; ++iteration) {
    if (iteration > 0) timedSetup(setupSeconds, setup);
    // The traced run alternates untraced and traced iterations.
    const bool traced = options.trace && iteration % 2 == 1;
    const auto t0 = Clock::now();
    allOk = passes.run({&input, 1}, traced, result) && allOk;
    (traced ? tracedTask : task).push_back(secondsSince(t0) * 1e3);
  }

  // Correctness, outside the timed region.
  BuildArtefacts artefacts;
  constructionPass(input, nullptr, &artefacts);
  const std::uint64_t fingerprint = artefacts.routing->table().fingerprint();
  result.check(allOk, "every build verified (verifyRouting + oracle) and "
                      "every reconfiguration ok");
  result.check(artefacts.incremental,
               "the cross-link failure took the incremental path");
  result.check(artefacts.incremental &&
                   incrementalMatchesMaskedBuild(input, artefacts),
               "incremental table equals masked full build");
  if (options.seed == kPinnedSeed) {
    result.check(fingerprint == kPinnedFingerprint,
                 "table fingerprint matches the pinned value");
  }
  result.note("table fingerprint " + hex(fingerprint));
  result.note(describe("task_ms", task, "ms"));
  passes.reportEndToEnd(result, steadyTime(task), setupSeconds);

  if (!options.trace) return;
  passes.reportLayers(result, generateSeconds([&] {
                        return makeFabric(kSwitches, kPorts, options.seed);
                      }));
  const stats::ExperimentConfig config = fig8Config(options.seed, 1);
  reportSimStatsLayers(config, fig8Fabrics(config), result);
  // The fault-to-visible path at this size: the chosen cross-link fails and
  // recovers through a service-mode manager serving the built table.
  const topo::LinkId link = input.failedLinks.front();
  reportChurnRound(result, *in.topo, artefacts.routing->table(),
                   {{{link}, false}, {{link}, true}}, options.seed + 8);
  const double coverage = passes.coverage();
  reportTraceCost(result, steadyTime(tracedTask), steadyTime(task), coverage);
  result.check(coverage >= 0.95, "spans tile >= 95% of the construction time");
}

}  // namespace perfbench
