#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "fault/reconfigure.hpp"
#include "routing/verify.hpp"
#include "topology/generate.hpp"
#include "tree/coordinated_tree.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failedChecks_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    notes_.push_back("CHECK FAILED: " + what);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string describe(const std::string& name,
                     const std::vector<double>& samples,
                     const std::string& unit) {
  char line[200];
  std::snprintf(line, sizeof line,
                "%s p10 %.6g %s (n=%zu, min %.6g, median %.6g, max %.6g)",
                name.c_str(), steadyTime(samples), unit.c_str(), samples.size(),
                quantile(samples, 0.0), median(samples), quantile(samples, 1.0));
  return line;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

topo::Topology makeFabric(topo::NodeId switches, unsigned ports,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::randomIrregular(switches, {.maxPorts = ports}, rng);
}

namespace {

/// Links outside the breadth-first spanning tree rooted at switch 0, best
/// first: links joining two switches on the same tree level, deepest level
/// first, then the rest.  Failing a same-level link between the deepest
/// switches dirties only a handful of destinations, so the incremental
/// path's fixed cost is what gets measured, on every seed alike.  Ties keep
/// the seeded shuffle order.
std::vector<topo::LinkId> rankedCrossLinks(const topo::Topology& topo,
                                           std::uint64_t seed) {
  const topo::NodeId n = topo.nodeCount();
  std::vector<topo::NodeId> parent(n, topo::kInvalidNode);
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::uint8_t> seen(n, 0);
  std::deque<topo::NodeId> queue{0};
  seen[0] = 1;
  std::vector<topo::NodeId> neighbours;
  while (!queue.empty()) {
    const topo::NodeId v = queue.front();
    queue.pop_front();
    neighbours.assign(topo.neighbors(v).begin(), topo.neighbors(v).end());
    std::sort(neighbours.begin(), neighbours.end());
    for (const topo::NodeId w : neighbours) {
      if (seen[w] != 0) continue;
      seen[w] = 1;
      parent[w] = v;
      level[w] = level[v] + 1;
      queue.push_back(w);
    }
  }
  std::vector<topo::LinkId> cross;
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const auto [a, b] = topo.linkEnds(l);
    if (parent[a] != b && parent[b] != a) cross.push_back(l);
  }
  if (cross.empty()) {
    throw std::runtime_error("rankedCrossLinks: the fabric is a tree");
  }
  util::Rng rng(seed);
  rng.shuffle(std::span<topo::LinkId>(cross));
  const auto rank = [&](topo::LinkId l) {
    const auto [a, b] = topo.linkEnds(l);
    return level[a] == level[b] ? level[a] + 1 : 0;
  };
  std::stable_sort(cross.begin(), cross.end(),
                   [&](topo::LinkId x, topo::LinkId y) {
                     return rank(x) > rank(y);
                   });
  return cross;
}

}  // namespace

std::vector<topo::LinkId> pickCrossLinks(const topo::Topology& topo,
                                         std::uint64_t seed, unsigned count) {
  std::vector<topo::LinkId> cross = rankedCrossLinks(topo, seed);
  cross.resize(std::min<std::size_t>(count, cross.size()));
  return cross;
}

bool connected(const topo::Topology& topo,
               const std::vector<std::uint8_t>& linkAlive) {
  const topo::NodeId n = topo.nodeCount();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<topo::NodeId> stack{0};
  seen[0] = 1;
  topo::NodeId reached = 1;
  while (!stack.empty()) {
    const topo::NodeId v = stack.back();
    stack.pop_back();
    for (const topo::ChannelId c : topo.outputChannels(v)) {
      if (linkAlive[topo::Topology::linkOf(c)] == 0) continue;
      const topo::NodeId w = topo.channelDst(c);
      if (seen[w] != 0) continue;
      seen[w] = 1;
      ++reached;
      stack.push_back(w);
    }
  }
  return reached == n;
}

std::vector<std::uint64_t> channelAliveWords(
    const topo::Topology& topo, const std::vector<std::uint8_t>& linkAlive) {
  std::vector<std::uint64_t> words((topo.channelCount() + 63) / 64, 0);
  for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
    if (linkAlive[topo::Topology::linkOf(c)] != 0) {
      words[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  return words;
}

void BuildTimes::add(const BuildTimes& other) {
  buildSeconds += other.buildSeconds;
  verifySeconds += other.verifySeconds;
  oracleSeconds += other.oracleSeconds;
  reconfigSeconds += other.reconfigSeconds;
  verified = verified && other.verified;
  reconfigOk = reconfigOk && other.reconfigOk;
  reconfigurations += other.reconfigurations;
  dirtyDestinations += other.dirtyDestinations;
}

BuildTimes constructionPass(const BuildInput& input, util::SpanRecorder* spans,
                            BuildArtefacts* keep) {
  const topo::Topology& topo = *input.topo;
  BuildTimes times;

  const auto t0 = Clock::now();
  util::ScopedSpan treeSpan(spans, "tree");
  util::Rng rng(input.treeSeed);
  const tree::CoordinatedTree ct =
      tree::CoordinatedTree::build(topo, input.policy, rng);
  treeSpan.close();
  // buildDownUp records classify / repair / release / table_build itself.
  auto routing = std::make_unique<routing::Routing>(
      core::buildDownUp(topo, ct, {.spans = spans}));
  times.buildSeconds = secondsSince(t0);

  const auto t1 = Clock::now();
  util::ScopedSpan verifySpan(spans, "verify");
  const routing::VerifyReport report = routing::verifyRouting(*routing);
  verifySpan.close();
  times.verifySeconds = secondsSince(t1);

  const auto t2 = Clock::now();
  util::ScopedSpan oracleSpan(spans, "oracle");
  const verify::OracleReport oracle = verify::runOracle(
      {.perms = &routing->permissions(),
       .table = &routing->table(),
       .deepDistanceCheck = true});
  oracleSpan.close();
  times.oracleSeconds = secondsSince(t2);
  times.verified = report.ok() && oracle.ok();

  std::vector<std::uint8_t> linkAlive(topo.linkCount(), 1);
  const std::vector<std::uint8_t> nodeAlive(topo.nodeCount(), 1);
  fault::Reconfigurator reconfigurator(topo);
  reconfigurator.setSpans(spans);
  for (const topo::LinkId link : input.failedLinks) {
    linkAlive[link] = 0;
    const auto t3 = Clock::now();
    util::ScopedSpan reconfigSpan(spans, "reconfig_incr");
    fault::ReconfigOutcome incr = reconfigurator.rebuildIncremental(
        routing->table(), linkAlive, nodeAlive);
    reconfigSpan.close();
    times.reconfigSeconds += secondsSince(t3);
    times.reconfigOk = times.reconfigOk && incr.ok();
    ++times.reconfigurations;
    times.dirtyDestinations += incr.rebuiltDestinations;
    linkAlive[link] = 1;
    if (keep != nullptr && keep->incrTable == nullptr) {
      keep->incremental = incr.incremental;
      keep->incrPerms = std::move(incr.perms);
      keep->incrTable = std::move(incr.table);
    }
  }
  if (keep != nullptr) keep->routing = std::move(routing);
  return times;
}

bool incrementalMatchesMaskedBuild(const BuildInput& input,
                                   const BuildArtefacts& artefacts) {
  const topo::Topology& topo = *input.topo;
  std::vector<std::uint8_t> linkAlive(topo.linkCount(), 1);
  linkAlive[input.failedLinks.front()] = 0;
  const routing::RoutingTable masked = routing::RoutingTable::build(
      *artefacts.incrPerms, nullptr, channelAliveWords(topo, linkAlive));
  return artefacts.incrTable->identicalTo(masked);
}

namespace {

using Span = util::SpanRecorder::Span;

/// Totals of one stage: every direct child of a root span with one name.
struct StageTotals {
  double seconds = 0.0;
  double selfSeconds = 0.0;  // minus the part its own children cover
  std::uint64_t allocCount = 0;  // the stage's whole subtree
  std::uint64_t allocBytes = 0;
  util::PerfCounts counters;  // inclusive of children
};

std::vector<std::pair<std::string, StageTotals>> stageTotals(
    const std::vector<Span>& spans) {
  std::vector<std::pair<std::string, StageTotals>> stages;
  // Stage index of every span: its own for the direct children of a root,
  // its stage ancestor's for deeper spans (allocation roll-up).
  std::vector<int> stageOf(spans.size(), -1);
  std::vector<std::uint64_t> childNs(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent == util::SpanRecorder::kNoParent) continue;
    childNs[span.parent] += span.durationNs();
    if (spans[span.parent].parent != util::SpanRecorder::kNoParent) {
      stageOf[i] = stageOf[span.parent];
      continue;
    }
    auto it = std::find_if(stages.begin(), stages.end(),
                           [&](const auto& s) { return s.first == span.name; });
    if (it == stages.end()) {
      stages.emplace_back(span.name, StageTotals{});
      it = stages.end() - 1;
    }
    stageOf[i] = static_cast<int>(it - stages.begin());
    it->second.seconds += static_cast<double>(span.durationNs()) / 1e9;
    it->second.counters.accumulate(span.counters);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (stageOf[i] < 0) continue;
    StageTotals& totals = stages[static_cast<std::size_t>(stageOf[i])].second;
    totals.allocCount += spans[i].allocCount;
    totals.allocBytes += spans[i].allocBytes;
    if (spans[spans[i].parent].parent == util::SpanRecorder::kNoParent) {
      totals.selfSeconds +=
          static_cast<double>(spans[i].durationNs() - childNs[i]) / 1e9;
    }
  }
  return stages;
}

/// Counter-derived text for one stage: the task clock, IPC and cache-miss
/// rate, or why they are unavailable (never a silent zero).
std::string counterText(const util::PerfCounts& c,
                        const util::PerfCounterGroup& group, double passes) {
  const std::string why = group.available() ? group.degradedReason()
                                            : group.unavailableReason();
  char clock[32] = "unavailable";
  if (c.has(util::PerfEvent::kTaskClock)) {
    std::snprintf(clock, sizeof clock, "%.3f",
                  static_cast<double>(c.get(util::PerfEvent::kTaskClock)) /
                      1e6 / passes);
  }
  std::string ipc = "unavailable (" + why + ")";
  std::string miss = ipc;
  char value[32];
  if (c.ipc() >= 0) {
    std::snprintf(value, sizeof value, "%.3f", c.ipc());
    ipc = value;
  }
  if (c.cacheMissRate() >= 0) {
    std::snprintf(value, sizeof value, "%.4f", c.cacheMissRate());
    miss = value;
  }
  return std::string("task_clock_ms ") + clock + "  ipc " + ipc +
         "  cache_miss_rate " + miss;
}

/// Pins the calling thread to the `turn`-th CPU (round robin) of the set it
/// may run on until destroyed, then restores the set.  On a shared host one
/// CPU can run a fifth slower than another for minutes, so a thread the
/// scheduler leaves on a slow CPU makes a whole run slow; taking successive
/// passes on every CPU in turn makes steadyTime that of the fastest CPUs.
/// Does nothing when the affinity calls fail.
class CpuTurn {
 public:
  explicit CpuTurn(unsigned turn) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 1) return;
    int skip = static_cast<int>(turn % static_cast<unsigned>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~CpuTurn() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

PassRecorder::PassRecorder() {
  spans_.attachCounters(&counters_);
  spans_.setAllocTracking(true);
}

bool PassRecorder::run(std::span<const BuildInput> inputs, bool traced,
                       Result& result) {
  const CpuTurn pin(traced ? tracedTurn_++ : turn_++);
  util::SpanRecorder* recorder = traced ? &spans_ : nullptr;
  BuildTimes sum;
  for (const BuildInput& input : inputs) {
    util::ScopedSpan root(recorder, "construct");
    const BuildTimes t = constructionPass(input, recorder);
    result.operation(t.verified && t.reconfigOk);
    sum.add(t);
  }
  const double reconfigurations =
      std::max<std::uint32_t>(1, sum.reconfigurations);
  if (traced) {
    ++tracedPasses_;
    dirty_.push_back(sum.dirtyDestinations / reconfigurations);
    perDirtyMs_.push_back(sum.reconfigSeconds * 1e3 /
                          std::max<std::uint32_t>(1, sum.dirtyDestinations));
  } else {
    build_.push_back(sum.buildSeconds);
    verified_.push_back(sum.verifiedBuildSeconds());
    reconfig_.push_back(sum.reconfigSeconds / reconfigurations);
  }
  return sum.verified && sum.reconfigOk;
}

void PassRecorder::reportEndToEnd(Result& result, double taskMs,
                                  const std::vector<double>& setupSeconds) const {
  result.note(describe("build_s", build_, "s"));
  result.note(describe("verified_build_s", verified_, "s"));
  result.note(describe("reconfig_incr_s", reconfig_, "s"));
  result.note(describe("setup_s", setupSeconds, "s"));
  result.endToEnd("task_ms", taskMs, "ms");
  result.endToEnd("build_s", steadyTime(build_), "s");
  result.endToEnd("verified_build_s", steadyTime(verified_), "s");
  result.endToEnd("reconfig_incr_s", steadyTime(reconfig_), "s");
  result.endToEnd("setup_s", steadyTime(setupSeconds), "s");
  result.endToEnd("peak_rss_mb", peakRssMb(), "MB");
}

void PassRecorder::reportLayers(Result& result, double generateSeconds) const {
  struct Row {
    const char* span;
    const char* metric;
    bool allocs;  // a build stage: allocations reported, part of build_s
  };
  static constexpr Row kRows[] = {
      {"tree", "tree.build", true},
      {"classify", "routing.classify", true},
      {"repair", "core.repair", true},
      {"release", "core.release", true},
      {"table_build", "routing.table_build", true},
      {"verify", "routing.verify", false},
      {"oracle", "verify.oracle", false},
  };
  result.layer("topology.generate_s", generateSeconds, "s");
  const auto stages = stageTotals(spans_.snapshot());
  const double passes = std::max(1, tracedPasses_);
  double buildSeconds = 0.0;
  double tableSeconds = 0.0;
  for (const Row& row : kRows) {
    StageTotals t;
    for (const auto& [name, totals] : stages) {
      if (name == row.span) t = totals;
    }
    const std::string name = row.metric;
    result.layer(name + "_s", t.seconds / passes, "s");
    if (row.allocs) {
      buildSeconds += t.seconds;
      if (name == "routing.table_build") tableSeconds = t.seconds;
      result.layer(name + ".alloc_count",
                   static_cast<double>(t.allocCount) / passes, "count");
      result.layer(name + ".alloc_bytes",
                   static_cast<double>(t.allocBytes) / passes, "B");
    }
    char line[96];
    std::snprintf(line, sizeof line, "layer %-20s self %.6f s  ", row.metric,
                  t.selfSeconds / passes);
    result.note(line + counterText(t.counters, counters_, passes));
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "routing.table_build share of tree+classify+repair+release+"
                "table_build: %.1f%%",
                buildSeconds > 0 ? 100.0 * tableSeconds / buildSeconds : 0.0);
  result.note(line);
  result.layer("fault.dirty_destinations", median(dirty_), "count");
  result.layer("fault.incr_ms_per_dirty_destination", median(perDirtyMs_),
               "ms");
}

double PassRecorder::coverage() const {
  std::uint64_t rootNs = 0;
  std::uint64_t coveredNs = 0;
  const std::vector<Span> spans = spans_.snapshot();
  for (const Span& span : spans) {
    if (span.parent == util::SpanRecorder::kNoParent) {
      rootNs += span.durationNs();
    } else if (spans[span.parent].parent == util::SpanRecorder::kNoParent) {
      coveredNs += span.durationNs();
    }
  }
  return rootNs == 0 ? 0.0
                     : static_cast<double>(coveredNs) /
                           static_cast<double>(rootNs);
}

void reportTraceCost(Result& result, double tracedTaskMs, double taskMs,
                     double coverage) {
  result.layer("obs.span_coverage_pct", 100.0 * coverage, "%");
  result.layer("obs.trace_overhead_pct", 100.0 * (tracedTaskMs / taskMs - 1.0),
               "%");
}

}  // namespace perfbench
