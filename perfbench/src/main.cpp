// The repository benchmark: one process per workload run.
//
//   perfbench --workload paper_fig8|construct_2048|fabric_churn_256|all
//             --seed N --seconds S --trace 0|1
//
// Prints the workload's notes, correctness checks, every metric by name
// with its unit and the failure share, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
// Routes the global allocation functions through util::noteAllocation so
// the traced run can charge heap traffic to stages (one TU per binary).
#include "util/alloc_hooks.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"paper_fig8", runPaperFig8},
    {"construct_2048", runConstruct2048},
    {"fabric_churn_256", runFabricChurn256},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_fig8|construct_2048|fabric_churn_256|all --seed N "
               "--seconds S --trace 0|1\n",
               message);
  return 2;
}

bool parseNumber(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

void printMetrics(const char* workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s = %.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void appendJson(std::string& json, const std::string& name, const Metric& m) {
  char value[64];
  std::snprintf(value, sizeof value, "%.17g", m.value);
  if (json.size() > 1) json += ", ";
  json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
          m.unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc raises its mmap threshold the first time a large block is freed;
  // from then on large tables reuse heap memory instead of faulting in
  // fresh pages.  When that happens depends on the seed's allocation
  // history and moved construction times by a fifth between seeds.  Start
  // every run in the state a long-running process settles in: the values
  // glibc's own adjustment reaches at its cap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  Options options;
  const unsigned hw = std::thread::hardware_concurrency();
  options.hardwareThreads = hw == 0 ? 1 : hw;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parseNumber(value, number) || number < 0) return usage("bad --seed");
      options.seed = static_cast<std::uint64_t>(number);
      haveSeed = true;
    } else if (arg == "--seconds") {
      if (!parseNumber(value, number) || number <= 0) {
        return usage("bad --seconds");
      }
      options.seconds = number;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!haveSeed) return usage("--seed is required");

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (options.workload == "all" || options.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) return usage("unknown --workload");

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string json = "{";
  for (const Workload* w : selected) {
    Result result;
    std::printf("== %s (seed %llu, %.1f s, trace %d, %u hardware threads)\n",
                w->name, static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                options.hardwareThreads);
    std::fflush(stdout);
    try {
      w->run(options, result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
      return 1;
    }
    const auto& metrics =
        options.trace ? result.layerMetrics() : result.endToEndMetrics();
    for (const Metric& m : metrics) {
      result.check(std::isfinite(m.value), m.name + " is finite");
    }
    for (const std::string& line : result.notes()) {
      std::printf("%s %s\n", w->name, line.c_str());
    }
    printMetrics(w->name, result.endToEndMetrics());
    printMetrics(w->name, result.layerMetrics());
    std::printf("%s operations: %llu attempted, %llu failed (%.4f%%); "
                "checks: %llu, %s\n",
                w->name, static_cast<unsigned long long>(result.attempted()),
                static_cast<unsigned long long>(result.failed()),
                result.attempted() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted()),
                static_cast<unsigned long long>(result.checks()),
                result.correct() ? "all passed" : "FAILED");
    correct = correct && result.correct();
    attempted += result.attempted();
    failed += result.failed();
    for (const Metric& m : metrics) {
      appendJson(json,
                 selected.size() == 1 ? m.name
                                      : std::string(w->name) + "." + m.name,
                 m);
    }
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return correct ? 0 : 1;
}
