// Reproduces the paper's evaluation from one sweep.  Figure 8: average
// message latency and accepted traffic under increasing offered load, for
// L-turn and DOWN/UP over trees M1/M2/M3 on 4-port (Fig. 8a) and 8-port
// (Fig. 8b) irregular networks, with the saturation summary (max accepted
// traffic = the paper's throughput) and the shape verdicts.  Then Tables
// 1-4, which the paper reads off the same runs at each algorithm's peak
// throughput, each followed by its published values.
#include <fstream>
#include <iomanip>
#include <iostream>

#include "exp_common.hpp"
#include "stats/compare.hpp"

namespace {

using namespace downup;

struct PaperTable {
  const char* title;
  const char* reference;  // caption of the published values
  double (*value)(const stats::Cell&);
  int precision;
  const char* suffix;
  // Row-major over (policy M1..M3) x (lturn 4p, lturn 8p, downup 4p,
  // downup 8p).
  double paper[3][4];
};

constexpr PaperTable kTables[] = {
    // Higher is better; DOWN/UP > L-turn everywhere.
    {"Table 1. Average node utilization (flits/clock/port)",
     "Table 1, node utilization",
     [](const stats::Cell& cell) { return cell.nodeUtilization.mean(); },
     6,
     "",
     {{0.115772, 0.123159, 0.123295, 0.147124},
      {0.108101, 0.111653, 0.121793, 0.139588},
      {0.095841, 0.092198, 0.120955, 0.126071}}},
    // The standard deviation of node utilization over all switches: lower
    // means a better-balanced network.
    {"Table 2. Traffic load (std-dev of node utilization)",
     "Table 2, traffic load",
     [](const stats::Cell& cell) { return cell.trafficLoad.mean(); },
     6,
     "",
     {{0.078314, 0.048727, 0.077657, 0.043990},
      {0.081115, 0.050460, 0.078501, 0.047316},
      {0.083969, 0.053392, 0.078047, 0.049796}}},
    // The share of total node utilization carried by switches in
    // coordinated-tree levels 0 and 1; DOWN/UP's whole point is to push
    // this down.
    {"Table 3. Degree of hot spots (%)",
     "Table 3, degree of hot spots",
     [](const stats::Cell& cell) { return cell.hotspotPercent.mean(); },
     2,
     " %",
     {{12.85, 13.26, 12.00, 9.93},
      {14.15, 14.90, 12.13, 10.56},
      {16.18, 18.43, 12.16, 11.25}}},
    // Mean node utilization over the coordinated tree's leaves: higher
    // means more traffic pushed away from the root.
    {"Table 4. Leaf utilization (flits/clock/port)",
     "Table 4, leaf utilization",
     [](const stats::Cell& cell) { return cell.leafUtilization.mean(); },
     6,
     "",
     {{0.07336, 0.1065, 0.082897, 0.13807},
      {0.063953, 0.093437, 0.080773, 0.131578},
      {0.050633, 0.072627, 0.078453, 0.111609}}},
};

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentCli cli(
      "exp_fig8_latency",
      "Figure 8 (average message latency vs accepted traffic) and Tables "
      "1-4, from one sweep");
  const stats::ExperimentConfig config = cli.parse(argc, argv);
  const stats::ExperimentResults results = stats::runExperiment(config);
  const std::ios_base::fmtflags startFlags = std::cout.flags();
  const std::streamsize startPrecision = std::cout.precision();

  std::cout << "Figure 8. Average message latency and accepted traffic\n"
            << "(latency in clocks; traffic in flits/clock/node)\n\n";
  stats::printLatencyCurves(std::cout, results);

  std::cout << "\nSaturation summary (max accepted traffic, higher is "
               "better):\n";
  stats::printPaperTable(
      std::cout, "", results,
      [](const stats::Cell& cell) { return cell.maxAccepted.mean(); },
      /*precision=*/5);
  std::cout << "\nZero-load latency (clocks):\n";
  stats::printPaperTable(
      std::cout, "", results,
      [](const stats::Cell& cell) { return cell.zeroLoadLatency.mean(); },
      /*precision=*/1);
  std::cout << "\nShape verdicts (DOWN/UP vs L-turn, per paper claims):\n";
  stats::printShapeVerdicts(
      std::cout, stats::compareAlgorithms(results, core::Algorithm::kDownUp,
                                          core::Algorithm::kLTurn,
                                          stats::paperShapeChecks()));

  for (const PaperTable& table : kTables) {
    // The printers above leave std::cout fixed at 4 digits; the published
    // values print in the stream's starting format.
    std::cout.flags(startFlags);
    std::cout.precision(startPrecision);
    std::cout << "\n";
    stats::printPaperTable(std::cout, table.title, results, table.value,
                           table.precision, table.suffix);
    bench::printPaperReference(std::cout, table.reference, table.paper,
                               table.suffix);
  }

  cli.maybeWriteCsv(results);
  if (!cli.csvPrefix().empty()) {
    std::ofstream md(cli.csvPrefix() + "_report.md");
    stats::writeMarkdownReport(results, md);
  }
  return 0;
}
